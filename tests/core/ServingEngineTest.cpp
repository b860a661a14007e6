//===- tests/core/ServingEngineTest.cpp - Serving engine tests ------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ServingEngine.h"

#include "core/OnlineEstimator.h"
#include "ml/LinearRegression.h"
#include "ml/QuantizedModel.h"
#include "pmc/PlatformEvents.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {

/// Restores automatic global-pool sizing when a test returns.
struct ThreadCountGuard {
  ~ThreadCountGuard() { ThreadPool::setGlobalThreadCount(0); }
};

/// Deterministic stand-in model: predicts the plain sum of the features,
/// so expected accumulations can be checked by hand (fit is a no-op).
class SumModel : public ml::Model {
public:
  Expected<bool> fit(const ml::Dataset &) override { return true; }
  double predict(const std::vector<double> &Features) const override {
    double Sum = 0;
    for (double F : Features)
      Sum += F;
    return Sum;
  }
  std::string name() const override { return "sum"; }
};

/// One synthetic observation stream, columnar like a FleetTrace.
struct MiniTrace {
  size_t Width = 0;
  uint32_t NumTenants = 0;
  uint32_t NumApps = 0;
  std::vector<uint32_t> Tenants;
  std::vector<uint32_t> Apps;
  std::vector<double> Features; ///< Flat row-major.

  size_t size() const { return Tenants.size(); }
};

/// Draws a deterministic skewed stream for the property tests.
MiniTrace makeMiniTrace(size_t NumObservations, uint32_t NumTenants,
                        uint32_t NumApps, size_t Width, uint64_t Seed) {
  MiniTrace T;
  T.Width = Width;
  T.NumTenants = NumTenants;
  T.NumApps = NumApps;
  Rng Base(Seed);
  for (size_t I = 0; I < NumObservations; ++I) {
    Rng R = Base.fork(I);
    // Square the tenant draw to skew traffic toward low ids.
    double U = R.uniform();
    T.Tenants.push_back(static_cast<uint32_t>(U * U * NumTenants));
    T.Apps.push_back(static_cast<uint32_t>(R.below(NumApps)));
    for (size_t F = 0; F < Width; ++F)
      T.Features.push_back(R.uniform(0.25, 4.0));
  }
  return T;
}

/// Replays \p T through a fresh engine with the given config.
ServingEngine replayed(const ml::Model &M, const MiniTrace &T,
                       ServingConfig Config) {
  ServingEngine Engine(M, T.Width, T.NumTenants, T.NumApps, Config);
  for (size_t I = 0; I < T.size(); ++I)
    Engine.ingest(T.Tenants[I], T.Apps[I], T.Features.data() + I * T.Width);
  Engine.endEpoch();
  return Engine;
}

/// A small training set over the same feature distribution the mini
/// traces draw from (so quantization calibration covers the trace).
ml::Dataset miniTrainingSet(size_t Width, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t F = 0; F < Width; ++F)
    Names.push_back("f" + std::to_string(F));
  ml::Dataset Train(Names);
  for (int I = 0; I < 200; ++I) {
    std::vector<double> X(Width);
    double Y = 0;
    for (size_t F = 0; F < Width; ++F) {
      X[F] = R.uniform(0.25, 4.0);
      Y += static_cast<double>(F + 1) * X[F];
    }
    Train.addRow(X, Y + R.gaussian(0, 0.1));
  }
  return Train;
}

/// Fits a fresh LR on \p Train; the NNLS-free default solver is
/// deterministic, so two calls produce identical models.
std::unique_ptr<ml::Model> fittedLr(const ml::Dataset &Train) {
  auto M = std::make_unique<ml::LinearRegression>();
  auto Fit = M->fit(Train);
  assert(Fit);
  (void)Fit;
  return M;
}

} // namespace

TEST(ServingEngine, HandCheckedMiniTrace) {
  SumModel M;
  ServingConfig Config;
  Config.NumShards = 2;
  ServingEngine Engine(M, 2, /*NumTenants=*/3, /*NumApps=*/2, Config);

  const double Rows[4][2] = {{1, 2}, {10, 0.5}, {2, 3}, {0.5, 0.25}};
  Engine.ingest(0, 0, Rows[0]); // tenant 0, app 0 -> 3
  Engine.ingest(1, 1, Rows[1]); // tenant 1, app 1 -> 10.5
  Engine.ingest(0, 1, Rows[2]); // tenant 0, app 1 -> 5
  Engine.ingest(2, 0, Rows[3]); // tenant 2, app 0 -> 0.75

  // Nothing is query-visible until the epoch folds.
  EXPECT_EQ(Engine.fleetEnergy(), 0.0);
  EXPECT_EQ(Engine.tenantObservations(0), 0u);

  Engine.endEpoch();
  EXPECT_EQ(Engine.tenantEnergy(0), 8.0);
  EXPECT_EQ(Engine.tenantEnergy(1), 10.5);
  EXPECT_EQ(Engine.tenantEnergy(2), 0.75);
  EXPECT_EQ(Engine.tenantObservations(0), 2u);
  EXPECT_EQ(Engine.tenantObservations(1), 1u);
  EXPECT_EQ(Engine.tenantObservations(2), 1u);
  EXPECT_EQ(Engine.appEnergy(0), 3.75);
  EXPECT_EQ(Engine.appEnergy(1), 15.5);
  EXPECT_EQ(Engine.appObservations(0), 2u);
  EXPECT_EQ(Engine.appObservations(1), 2u);
  EXPECT_EQ(Engine.fleetEnergy(), 19.25);
  EXPECT_EQ(Engine.stats().Observations, 4u);
  EXPECT_EQ(Engine.stats().Epochs, 1u);
}

TEST(ServingEngine, AutoFoldsWhenEpochSizeReached) {
  SumModel M;
  ServingConfig Config;
  Config.NumShards = 1;
  Config.EpochSize = 4;
  Config.BatchSize = 8;
  ServingEngine Engine(M, 1, 2, 1, Config);
  const double One = 1.0;
  for (int I = 0; I < 4; ++I)
    Engine.ingest(static_cast<uint32_t>(I % 2), 0, &One);
  // The fourth ingest crossed EpochSize: folded with no explicit call.
  EXPECT_EQ(Engine.stats().Epochs, 1u);
  EXPECT_EQ(Engine.fleetEnergy(), 4.0);
  // A second, partial epoch folds on the explicit boundary only.
  Engine.ingest(0, 0, &One);
  EXPECT_EQ(Engine.fleetEnergy(), 4.0);
  Engine.endEpoch();
  EXPECT_EQ(Engine.fleetEnergy(), 5.0);
  EXPECT_EQ(Engine.stats().Epochs, 2u);
  EXPECT_EQ(Engine.stats().Batches, 2u); // 4-row epoch + 1-row epoch.
}

TEST(ServingEngine, EpochFoldTotalsEqualSerialAccumulation) {
  SumModel M;
  MiniTrace T = makeMiniTrace(5000, 37, 5, 3, 0xABCD);

  // Reference: one pass in trace order, accumulating per (tenant, app)
  // exactly like an unsharded, unbatched server would.
  std::vector<double> WantEnergy(T.NumTenants * T.NumApps, 0.0);
  std::vector<uint64_t> WantCount(T.NumTenants * T.NumApps, 0);
  std::vector<double> Row(T.Width);
  for (size_t I = 0; I < T.size(); ++I) {
    for (size_t F = 0; F < T.Width; ++F)
      Row[F] = T.Features[I * T.Width + F];
    const size_t Cell = T.Tenants[I] * T.NumApps + T.Apps[I];
    WantEnergy[Cell] += M.predict(Row);
    WantCount[Cell] += 1;
  }

  // Forced through multiple partial epochs and small batches.
  ServingConfig Config;
  Config.NumShards = 3;
  Config.EpochSize = 512;
  Config.BatchSize = 32;
  ServingEngine Engine = replayed(M, T, Config);
  for (uint32_t Tenant = 0; Tenant < T.NumTenants; ++Tenant) {
    double Energy = 0;
    uint64_t Count = 0;
    for (uint32_t App = 0; App < T.NumApps; ++App) {
      Energy += WantEnergy[Tenant * T.NumApps + App];
      Count += WantCount[Tenant * T.NumApps + App];
    }
    EXPECT_EQ(Engine.tenantEnergy(Tenant), Energy) << "tenant " << Tenant;
    EXPECT_EQ(Engine.tenantObservations(Tenant), Count);
  }
  EXPECT_EQ(Engine.stats().Observations, T.size());
  EXPECT_EQ(Engine.stats().Epochs, 10u); // ceil(5000 / 512).
}

TEST(ServingEngine, BitIdenticalAtAnyShardAndThreadCount) {
  ThreadCountGuard Guard;
  SumModel M;
  MiniTrace T = makeMiniTrace(4000, 29, 4, 3, 0x5EED);

  ThreadPool::setGlobalThreadCount(1);
  ServingConfig Baseline;
  Baseline.NumShards = 1;
  Baseline.EpochSize = 600;
  ServingEngine Reference = replayed(M, T, Baseline);

  for (unsigned Shards : {2u, 8u, 64u}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      ThreadPool::setGlobalThreadCount(Threads);
      ServingConfig Config = Baseline;
      Config.NumShards = Shards;
      ServingEngine Engine = replayed(M, T, Config);
      for (uint32_t Tenant = 0; Tenant < T.NumTenants; ++Tenant) {
        ASSERT_EQ(Engine.tenantEnergy(Tenant),
                  Reference.tenantEnergy(Tenant))
            << Shards << " shards, " << Threads << " threads, tenant "
            << Tenant;
        ASSERT_EQ(Engine.tenantObservations(Tenant),
                  Reference.tenantObservations(Tenant));
      }
      for (uint32_t App = 0; App < T.NumApps; ++App) {
        ASSERT_EQ(Engine.appEnergy(App), Reference.appEnergy(App));
        ASSERT_EQ(Engine.appObservations(App),
                  Reference.appObservations(App));
      }
      ASSERT_EQ(Engine.fleetEnergy(), Reference.fleetEnergy());
    }
  }
}

TEST(ServingEngine, BatchCountIsDeterministicPerShardCount) {
  SumModel M;
  ServingConfig Config;
  Config.NumShards = 1;
  Config.EpochSize = 64;
  Config.BatchSize = 8;
  ServingEngine Engine(M, 1, 4, 1, Config);
  const double One = 1.0;
  for (int I = 0; I < 20; ++I)
    Engine.ingest(static_cast<uint32_t>(I % 4), 0, &One);
  Engine.endEpoch();
  EXPECT_EQ(Engine.stats().Batches, 3u); // ceil(20 / 8) in one shard.
  EXPECT_EQ(Engine.stats().BatchMs.size(), 3u);
}

TEST(ServingEngine, PartialFinalEpochIsFolded) {
  SumModel M;
  MiniTrace T = makeMiniTrace(1000, 17, 3, 2, 0xFACE);

  // Serial reference accumulation, one pass in trace order, per
  // (tenant, app) cell to match the engine's summation order.
  std::vector<double> WantEnergy(T.NumTenants * T.NumApps, 0.0);
  std::vector<uint64_t> WantCount(T.NumTenants * T.NumApps, 0);
  std::vector<double> Row(T.Width);
  for (size_t I = 0; I < T.size(); ++I) {
    for (size_t F = 0; F < T.Width; ++F)
      Row[F] = T.Features[I * T.Width + F];
    const size_t Cell = T.Tenants[I] * T.NumApps + T.Apps[I];
    WantEnergy[Cell] += M.predict(Row);
    WantCount[Cell] += 1;
  }

  // 1000 = 3 * 300 + 100: the last 100 observations only reach the
  // tables if endEpoch folds the partial remainder.
  ServingConfig Config;
  Config.NumShards = 2;
  Config.EpochSize = 300;
  Config.BatchSize = 16;
  ServingEngine Engine = replayed(M, T, Config);
  EXPECT_EQ(Engine.stats().Epochs, 4u); // ceil(1000 / 300).
  EXPECT_EQ(Engine.stats().Observations, T.size());
  for (uint32_t Tenant = 0; Tenant < T.NumTenants; ++Tenant) {
    double Energy = 0;
    uint64_t Count = 0;
    for (uint32_t App = 0; App < T.NumApps; ++App) {
      Energy += WantEnergy[Tenant * T.NumApps + App];
      Count += WantCount[Tenant * T.NumApps + App];
    }
    EXPECT_EQ(Engine.tenantEnergy(Tenant), Energy) << "tenant " << Tenant;
    EXPECT_EQ(Engine.tenantObservations(Tenant), Count);
  }
}

TEST(ServingEngine, EpochLargerThanTraceFoldsOnce) {
  SumModel M;
  MiniTrace T = makeMiniTrace(1000, 11, 2, 2, 0xD1CE);
  ServingConfig Config;
  Config.NumShards = 2;
  Config.EpochSize = 5000; // Never reached: the whole trace is partial.
  ServingEngine Engine = replayed(M, T, Config);
  EXPECT_EQ(Engine.stats().Epochs, 1u);
  EXPECT_EQ(Engine.stats().Observations, T.size());
  uint64_t Folded = 0;
  for (uint32_t Tenant = 0; Tenant < T.NumTenants; ++Tenant)
    Folded += Engine.tenantObservations(Tenant);
  EXPECT_EQ(Folded, T.size());
  EXPECT_GT(Engine.fleetEnergy(), 0.0);
}

TEST(ServingEngine, QuantizedReplayMatchesFpWithinBound) {
  ml::Dataset Train = miniTrainingSet(3, 0x99);
  std::unique_ptr<ml::Model> Fp = fittedLr(Train);
  auto Quant = ml::QuantizedModel::build(fittedLr(Train), Train);
  ASSERT_TRUE(bool(Quant));

  // Uneven epoch size on purpose: the partial-epoch fold must also be
  // exercised by the integer fast path.
  MiniTrace T = makeMiniTrace(3000, 23, 4, 3, 0xBEEF);
  ServingConfig Config;
  Config.NumShards = 2;
  Config.EpochSize = 700;
  Config.BatchSize = 64;
  ServingEngine FpEngine = replayed(*Fp, T, Config);
  ServingEngine QEngine = replayed(**Quant, T, Config);

  EXPECT_EQ(QEngine.stats().Epochs, 5u); // ceil(3000 / 700).
  EXPECT_EQ(QEngine.stats().Observations, T.size());
  EXPECT_EQ(QEngine.stats().Batches, FpEngine.stats().Batches);

  std::vector<double> FpEnergy, QEnergy;
  for (uint32_t Tenant = 0; Tenant < T.NumTenants; ++Tenant) {
    FpEnergy.push_back(FpEngine.tenantEnergy(Tenant));
    QEnergy.push_back(QEngine.tenantEnergy(Tenant));
    ASSERT_EQ(QEngine.tenantObservations(Tenant),
              FpEngine.tenantObservations(Tenant));
  }
  for (uint32_t App = 0; App < T.NumApps; ++App) {
    FpEnergy.push_back(FpEngine.appEnergy(App));
    QEnergy.push_back(QEngine.appEnergy(App));
    ASSERT_EQ(QEngine.appObservations(App), FpEngine.appObservations(App));
  }
  FpEnergy.push_back(FpEngine.fleetEnergy());
  QEnergy.push_back(QEngine.fleetEnergy());
  EXPECT_LT(ml::maxRelativeError(FpEnergy, QEnergy), 1e-4);
}

TEST(ServingEngine, QuantizedReplayBitIdenticalAtAnyShardAndThreadCount) {
  ThreadCountGuard Guard;
  ml::Dataset Train = miniTrainingSet(3, 0x77);
  auto Quant = ml::QuantizedModel::build(fittedLr(Train), Train);
  ASSERT_TRUE(bool(Quant));
  MiniTrace T = makeMiniTrace(4000, 29, 4, 3, 0x5EED);

  ThreadPool::setGlobalThreadCount(1);
  ServingConfig Baseline;
  Baseline.NumShards = 1;
  Baseline.EpochSize = 600;
  ServingEngine Reference = replayed(**Quant, T, Baseline);

  for (unsigned Shards : {2u, 8u, 64u}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      ThreadPool::setGlobalThreadCount(Threads);
      ServingConfig Config = Baseline;
      Config.NumShards = Shards;
      ServingEngine Engine = replayed(**Quant, T, Config);
      for (uint32_t Tenant = 0; Tenant < T.NumTenants; ++Tenant) {
        ASSERT_EQ(Engine.tenantEnergy(Tenant),
                  Reference.tenantEnergy(Tenant))
            << Shards << " shards, " << Threads << " threads, tenant "
            << Tenant;
        ASSERT_EQ(Engine.tenantObservations(Tenant),
                  Reference.tenantObservations(Tenant));
      }
      ASSERT_EQ(Engine.fleetEnergy(), Reference.fleetEnergy());
    }
  }
}

TEST(FleetTrace, SynthesisIsDeterministicAtAnyThreadCount) {
  ThreadCountGuard Guard;
  Machine M1(Platform::intelSkylakeServer(), 9);
  Machine M2(Platform::intelSkylakeServer(), 9);
  std::vector<std::string> Pa = pmc::skylakePaNames();
  std::vector<pmc::EventId> Events;
  for (const std::string &Name : {Pa[0], Pa[1]})
    Events.push_back(*M1.registry().lookup(Name));
  std::vector<CompoundApplication> Apps = {
      CompoundApplication(Application(KernelKind::MklDgemm, 9000)),
      CompoundApplication(Application(KernelKind::Stream, 20000000))};

  FleetTraceConfig Config;
  Config.NumObservations = 3000;
  Config.NumTenants = 41;
  Config.PrototypesPerApp = 3;
  ThreadPool::setGlobalThreadCount(1);
  auto A = FleetTrace::synthesize(M1, Events, Apps, Config);
  ASSERT_TRUE(bool(A));
  ThreadPool::setGlobalThreadCount(8);
  auto B = FleetTrace::synthesize(M2, Events, Apps, Config);
  ASSERT_TRUE(bool(B));

  ASSERT_EQ(A->size(), Config.NumObservations);
  ASSERT_EQ(A->width(), Events.size());
  for (size_t I = 0; I < A->size(); ++I) {
    ASSERT_EQ(A->tenant(I), B->tenant(I)) << "observation " << I;
    ASSERT_LT(A->tenant(I), Config.NumTenants);
    ASSERT_EQ(A->app(I), B->app(I));
    ASSERT_LT(A->app(I), Apps.size());
    for (size_t F = 0; F < A->width(); ++F)
      ASSERT_EQ(A->features(I)[F], B->features(I)[F]);
  }
}

TEST(FleetTrace, RejectsDegenerateConfigurations) {
  Machine M(Platform::intelSkylakeServer(), 10);
  std::vector<pmc::EventId> Events = {
      *M.registry().lookup(pmc::skylakePaNames()[0])};
  std::vector<CompoundApplication> Apps = {
      CompoundApplication(Application(KernelKind::MklDgemm, 9000))};
  EXPECT_FALSE(bool(FleetTrace::synthesize(M, Events, {}, FleetTraceConfig())));
  EXPECT_FALSE(bool(FleetTrace::synthesize(M, {}, Apps, FleetTraceConfig())));
  FleetTraceConfig NoTenants;
  NoTenants.NumTenants = 0;
  EXPECT_FALSE(bool(FleetTrace::synthesize(M, Events, Apps, NoTenants)));
}

TEST(ServingEngine, ServesARealEstimatorTraceAcrossShardCounts) {
  // LR and RF estimators, served with small batches so several batches of
  // one shard are in flight at once: every shard and thread count must
  // replay the 1-shard, 1-thread tables bit for bit, with the batch count
  // fixed by the shard count alone.
  ThreadCountGuard Guard;
  Machine M(Platform::intelSkylakeServer(), 21);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  std::vector<std::string> Pa = pmc::skylakePaNames();
  std::vector<std::string> Names = {Pa[0], Pa[1], Pa[3], Pa[7]};
  std::vector<CompoundApplication> Apps;
  for (uint64_t N = 7000; N <= 18000; N += 1000)
    Apps.emplace_back(Application(KernelKind::MklDgemm, N));

  for (ModelFamily Family : {ModelFamily::LR, ModelFamily::RF}) {
    SCOPED_TRACE(modelFamilyName(Family));
    auto Estimator = OnlineEstimator::train(M, Meter, Names, Apps, Family);
    ASSERT_TRUE(bool(Estimator));

    FleetTraceConfig Config;
    Config.NumObservations = 2000;
    Config.NumTenants = 50;
    Config.PrototypesPerApp = 2;
    auto Trace = FleetTrace::synthesize(M, Estimator->events(), Apps, Config);
    ASSERT_TRUE(bool(Trace));

    auto Replay = [&](unsigned Shards, unsigned Threads) {
      ThreadPool::setGlobalThreadCount(Threads);
      ServingConfig Serving;
      Serving.NumShards = Shards;
      Serving.EpochSize = 256;
      Serving.BatchSize = 16;
      ServingEngine Engine(Estimator->model(), Trace->width(),
                           Config.NumTenants, Trace->numApps(), Serving);
      Engine.replay(*Trace);
      return Engine;
    };
    const ServingEngine Reference = Replay(1, 1);
    EXPECT_EQ(Reference.stats().Observations, Trace->size());
    EXPECT_GT(Reference.fleetEnergy(), 0.0);

    for (unsigned Shards : {1u, 2u, 4u}) {
      uint64_t Batches = 0;
      for (unsigned Threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::to_string(Shards) + " shards, " +
                     std::to_string(Threads) + " threads");
        const ServingEngine Engine = Replay(Shards, Threads);
        if (Threads == 1)
          Batches = Engine.stats().Batches;
        EXPECT_EQ(Engine.stats().Batches, Batches);
        EXPECT_EQ(Engine.stats().BatchMs.size(), Batches);
        for (uint32_t Tenant = 0; Tenant < Config.NumTenants; ++Tenant) {
          ASSERT_EQ(Engine.tenantEnergy(Tenant),
                    Reference.tenantEnergy(Tenant))
              << "tenant " << Tenant;
          ASSERT_EQ(Engine.tenantObservations(Tenant),
                    Reference.tenantObservations(Tenant));
        }
        for (uint32_t App = 0; App < Trace->numApps(); ++App)
          ASSERT_EQ(Engine.appEnergy(App), Reference.appEnergy(App));
        ASSERT_EQ(Engine.fleetEnergy(), Reference.fleetEnergy());
      }
    }
  }
}

namespace {

/// A small drifting labeled fleet trace over real simulated events, plus
/// the event list used to synthesize it.
Expected<FleetTrace> makeDriftingTrace(Machine &M, size_t NumObservations,
                                       double DriftMax) {
  std::vector<std::string> Pa = pmc::skylakePaNames();
  std::vector<pmc::EventId> Events;
  for (const std::string &Name : {Pa[0], Pa[1], Pa[3], Pa[7]})
    Events.push_back(*M.registry().lookup(Name));
  std::vector<CompoundApplication> Apps = {
      CompoundApplication(Application(KernelKind::MklDgemm, 9000)),
      CompoundApplication(Application(KernelKind::Stream, 20000000)),
      CompoundApplication(Application(KernelKind::QuickSort, 1u << 24))};
  FleetTraceConfig Config;
  Config.NumObservations = NumObservations;
  Config.NumTenants = 41;
  Config.PrototypesPerApp = 3;
  Config.DriftMax = DriftMax;
  return FleetTrace::synthesize(M, Events, Apps, Config);
}

/// Snapshot of everything an online-retrain replay publishes.
struct RetrainResult {
  std::vector<double> Coefficients;
  std::vector<double> TenantEnergy;
  double FleetEnergy = 0;
  double Staleness = 0;
  uint64_t Retrains = 0;
};

/// Replays \p Trace with online retraining (\p Algo) enabled, seeding the
/// model from the head of the stream exactly like bench_serving_engine.
RetrainResult replayRetrain(const FleetTrace &Trace, uint32_t NumTenants,
                            ml::FitAlgorithm Algo, unsigned Shards,
                            size_t EpochSize) {
  std::vector<std::string> Names;
  for (size_t F = 0; F < Trace.width(); ++F)
    Names.push_back("pmc" + std::to_string(F));
  ml::Dataset Seed(Names);
  const size_t SeedRows = std::min<size_t>(512, Trace.size());
  for (size_t I = 0; I < SeedRows; ++I)
    Seed.addRow(Trace.features(I), Trace.label(I));
  ml::RlsLinearRegression Online;
  auto Fit = Online.fit(Seed);
  assert(Fit);
  (void)Fit;

  ServingConfig Config;
  Config.NumShards = Shards;
  Config.EpochSize = EpochSize;
  Config.ScoreLabels = true;
  ServingEngine Engine(Online, Trace.width(), NumTenants, Trace.numApps(),
                       Config);
  Engine.enableOnlineRetrain(Online, Algo, &Seed);
  Engine.replay(Trace);

  RetrainResult R;
  R.Coefficients = Online.coefficients();
  for (uint32_t T = 0; T < NumTenants; ++T)
    R.TenantEnergy.push_back(Engine.tenantEnergy(T));
  R.FleetEnergy = Engine.fleetEnergy();
  R.Staleness = Engine.stats().stalenessError();
  R.Retrains = Engine.stats().Retrains;
  return R;
}

double retrainRelDiff(double A, double B) {
  return A != 0 ? std::fabs(B - A) / std::fabs(A) : std::fabs(B);
}

} // namespace

TEST(ServingEngine, OnlineRetrainBitIdenticalAtAnyShardAndThreadCount) {
  // Staleness scoring and retrain updates are applied serially in trace
  // order at the fold, so the entire online-retrain replay — published
  // coefficients included — is a pure function of the trace: shards and
  // threads trade wall clock only.
  ThreadCountGuard Guard;
  Machine M(Platform::intelSkylakeServer(), 33);
  auto Trace = makeDriftingTrace(M, 3000, /*DriftMax=*/0.3);
  ASSERT_TRUE(bool(Trace));

  ThreadPool::setGlobalThreadCount(1);
  RetrainResult Reference =
      replayRetrain(*Trace, 41, ml::FitAlgorithm::Rls, /*Shards=*/1, 256);
  EXPECT_GT(Reference.Retrains, 0u);

  for (unsigned Shards : {1u, 8u}) {
    for (unsigned Threads : {1u, 4u}) {
      ThreadPool::setGlobalThreadCount(Threads);
      RetrainResult Got =
          replayRetrain(*Trace, 41, ml::FitAlgorithm::Rls, Shards, 256);
      ASSERT_EQ(Got.Coefficients.size(), Reference.Coefficients.size());
      for (size_t C = 0; C < Reference.Coefficients.size(); ++C)
        ASSERT_EQ(Got.Coefficients[C], Reference.Coefficients[C])
            << Shards << " shards, " << Threads << " threads, coef " << C;
      for (uint32_t T = 0; T < 41; ++T)
        ASSERT_EQ(Got.TenantEnergy[T], Reference.TenantEnergy[T])
            << Shards << " shards, " << Threads << " threads, tenant " << T;
      ASSERT_EQ(Got.FleetEnergy, Reference.FleetEnergy);
      ASSERT_EQ(Got.Staleness, Reference.Staleness);
      ASSERT_EQ(Got.Retrains, Reference.Retrains);
    }
  }
}

TEST(ServingEngine, RlsAndRefitRetrainAgreeToSolverPrecision) {
  // Both modes seed from the identical stream head and maintain the same
  // ridge system (refit re-solves seed + all folded epochs), so the
  // published coefficients and the attributions they produce must agree
  // far inside the 1e-4 CI-gate bound.
  Machine M(Platform::intelSkylakeServer(), 35);
  auto Trace = makeDriftingTrace(M, 3000, /*DriftMax=*/0.3);
  ASSERT_TRUE(bool(Trace));

  RetrainResult Rls =
      replayRetrain(*Trace, 41, ml::FitAlgorithm::Rls, 2, 256);
  RetrainResult Refit =
      replayRetrain(*Trace, 41, ml::FitAlgorithm::Refit, 2, 256);

  ASSERT_EQ(Rls.Retrains, Refit.Retrains);
  for (size_t C = 0; C < Rls.Coefficients.size(); ++C)
    EXPECT_LT(retrainRelDiff(Refit.Coefficients[C], Rls.Coefficients[C]),
              1e-8)
        << "coef " << C;
  for (uint32_t T = 0; T < 41; ++T)
    EXPECT_LT(retrainRelDiff(Refit.TenantEnergy[T], Rls.TenantEnergy[T]),
              1e-8)
        << "tenant " << T;
  EXPECT_LT(retrainRelDiff(Refit.FleetEnergy, Rls.FleetEnergy), 1e-8);
  EXPECT_LT(retrainRelDiff(Refit.Staleness, Rls.Staleness), 1e-6);
}

TEST(ServingEngine, OnlineRetrainTracksDriftBetterThanFrozenModel) {
  // The accuracy claim behind the whole subsystem: on a drifting
  // workload, continuously retrained predictions carry a lower
  // prediction-weighted staleness error than the epoch-0 frozen model.
  Machine M(Platform::intelSkylakeServer(), 37);
  auto Trace = makeDriftingTrace(M, 4000, /*DriftMax=*/0.5);
  ASSERT_TRUE(bool(Trace));

  // Frozen baseline: same seeded model, label scoring on, no retraining.
  std::vector<std::string> Names;
  for (size_t F = 0; F < Trace->width(); ++F)
    Names.push_back("pmc" + std::to_string(F));
  ml::Dataset Seed(Names);
  for (size_t I = 0; I < 512; ++I)
    Seed.addRow(Trace->features(I), Trace->label(I));
  ml::RlsLinearRegression Frozen;
  ASSERT_TRUE(bool(Frozen.fit(Seed)));
  ServingConfig Config;
  Config.NumShards = 2;
  Config.EpochSize = 256;
  Config.ScoreLabels = true;
  ServingEngine FrozenEngine(Frozen, Trace->width(), 41, Trace->numApps(),
                             Config);
  FrozenEngine.replay(*Trace);
  EXPECT_EQ(FrozenEngine.stats().Retrains, 0u);
  const double FrozenStaleness = FrozenEngine.stats().stalenessError();

  RetrainResult Online =
      replayRetrain(*Trace, 41, ml::FitAlgorithm::Rls, 2, 256);
  EXPECT_GT(Online.Retrains, 0u);
  EXPECT_GT(FrozenStaleness, 0.0);
  EXPECT_LT(Online.Staleness, FrozenStaleness);
}

TEST(FleetTrace, DriftScalesLabelsButNeverFeatures) {
  // Label drift rides a separate fork of the noise stream: turning it on
  // (or off) must leave every feature value bit-identical, so drifting
  // and non-drifting runs share the identical serving workload.
  Machine M1(Platform::intelSkylakeServer(), 39);
  Machine M2(Platform::intelSkylakeServer(), 39);
  auto Flat = makeDriftingTrace(M1, 1500, /*DriftMax=*/0.0);
  auto Drifting = makeDriftingTrace(M2, 1500, /*DriftMax=*/0.4);
  ASSERT_TRUE(bool(Flat));
  ASSERT_TRUE(bool(Drifting));

  double MaxLabelRel = 0;
  for (size_t I = 0; I < Flat->size(); ++I) {
    ASSERT_EQ(Flat->tenant(I), Drifting->tenant(I));
    ASSERT_EQ(Flat->app(I), Drifting->app(I));
    for (size_t F = 0; F < Flat->width(); ++F)
      ASSERT_EQ(Flat->features(I)[F], Drifting->features(I)[F])
          << "observation " << I;
    ASSERT_GT(Flat->label(I), 0.0);
    MaxLabelRel = std::max(
        MaxLabelRel, std::fabs(Drifting->label(I) - Flat->label(I)) /
                         Flat->label(I));
  }
  // The drift itself must be visible in the labels (up to 40% here).
  EXPECT_GT(MaxLabelRel, 0.05);
  EXPECT_LT(MaxLabelRel, 0.45);
}

namespace {

/// \returns \p Clean with hostile rows inserted, \p Injected counting
/// them: before every seventh row, a row naming a tenant or app outside
/// the fleet, cycling through a bad tenant, a bad app and both (ids at
/// the bound and at UINT32_MAX); before every fifth, an in-fleet row with
/// one feature NaN, +Inf or -Inf in turn, the poisoned column cycling.
MiniTrace withHostileRows(const MiniTrace &Clean, size_t &Injected) {
  const uint32_t BadTenants[] = {Clean.NumTenants, UINT32_MAX};
  const uint32_t BadApps[] = {Clean.NumApps, UINT32_MAX};
  const double NonFinite[] = {std::nan(""), INFINITY, -INFINITY};
  MiniTrace Mixed = Clean;
  Mixed.Tenants.clear();
  Mixed.Apps.clear();
  Mixed.Features.clear();
  Injected = 0;
  auto Push = [&](uint32_t Tenant, uint32_t App, size_t Row) {
    Mixed.Tenants.push_back(Tenant);
    Mixed.Apps.push_back(App);
    for (size_t F = 0; F < Clean.Width; ++F)
      Mixed.Features.push_back(Clean.Features[Row * Clean.Width + F]);
  };
  for (size_t I = 0; I < Clean.size(); ++I) {
    if (I % 7 == 0) {
      const size_t K = I / 7;
      Push(K % 3 == 1 ? Clean.Tenants[I] : BadTenants[K % 2],
           K % 3 == 0 ? Clean.Apps[I] : BadApps[K % 2], I);
      ++Injected;
    }
    if (I % 5 == 3) {
      const size_t K = I / 5;
      Push(Clean.Tenants[I], Clean.Apps[I], I);
      Mixed.Features[(Mixed.size() - 1) * Clean.Width + K % Clean.Width] =
          NonFinite[K % 3];
      ++Injected;
    }
    Push(Clean.Tenants[I], Clean.Apps[I], I);
  }
  return Mixed;
}

/// Requires every tenant and app table entry and the fleet total of \p Got
/// to equal \p Want's bit for bit.
void expectSameTables(const ServingEngine &Got, const ServingEngine &Want) {
  for (uint32_t Tenant = 0; Tenant < Want.numTenants(); ++Tenant) {
    ASSERT_EQ(Got.tenantEnergy(Tenant), Want.tenantEnergy(Tenant))
        << "tenant " << Tenant;
    ASSERT_EQ(Got.tenantObservations(Tenant), Want.tenantObservations(Tenant))
        << "tenant " << Tenant;
  }
  for (uint32_t App = 0; App < Want.numApps(); ++App) {
    ASSERT_EQ(Got.appEnergy(App), Want.appEnergy(App)) << "app " << App;
    ASSERT_EQ(Got.appObservations(App), Want.appObservations(App));
  }
  ASSERT_EQ(Got.fleetEnergy(), Want.fleetEnergy());
}

} // namespace

TEST(ServingEngine, RefusesOutOfRangeIdsAtAnyShardAndThreadCount) {
  // A row naming a tenant or app outside the fleet, or carrying a NaN or
  // infinite feature, is refused at ingest on the FP and the quantized
  // path alike: never staged, counted once in Refused, and the tables,
  // observation and epoch counts are those of the trace without it.
  ThreadCountGuard Guard;
  SumModel Fp;
  ml::Dataset Train = miniTrainingSet(3, 0x51);
  auto Quant = ml::QuantizedModel::build(fittedLr(Train), Train);
  ASSERT_TRUE(bool(Quant));
  MiniTrace Clean = makeMiniTrace(3000, 29, 4, 3, 0xBAD1D);
  size_t Injected = 0;
  MiniTrace Mixed = withHostileRows(Clean, Injected);
  ASSERT_GT(Injected, 1000u);

  const ml::Model *Models[] = {&Fp, Quant->get()};
  for (const ml::Model *M : Models)
    for (unsigned Shards : {1u, 2u, 8u})
      for (unsigned Threads : {1u, 4u}) {
        SCOPED_TRACE(M->name() + ", " + std::to_string(Shards) + " shards, " +
                     std::to_string(Threads) + " threads");
        ThreadPool::setGlobalThreadCount(Threads);
        ServingConfig Config;
        Config.NumShards = Shards;
        Config.EpochSize = 500;
        Config.BatchSize = 32;
        const ServingEngine Want = replayed(*M, Clean, Config);
        ServingEngine Got(*M, Mixed.Width, Mixed.NumTenants, Mixed.NumApps,
                          Config);
        for (size_t I = 0; I < Mixed.size(); ++I) {
          const double *X = Mixed.Features.data() + I * Mixed.Width;
          const bool Admissible =
              Mixed.Tenants[I] < Mixed.NumTenants &&
              Mixed.Apps[I] < Mixed.NumApps &&
              std::all_of(X, X + Mixed.Width,
                          [](double V) { return std::isfinite(V); });
          ASSERT_EQ(Got.ingest(Mixed.Tenants[I], Mixed.Apps[I], X),
                    Admissible)
              << "row " << I;
        }
        Got.endEpoch();
        EXPECT_EQ(Got.stats().Refused, Injected);
        EXPECT_EQ(Got.stats().Observations, Clean.size());
        EXPECT_EQ(Got.stats().Epochs, Want.stats().Epochs);
        expectSameTables(Got, Want);
      }
}

TEST(ServingEngine, ReplayRefusesTraceRowsOutsideTheFleet) {
  // A trace drawn for a larger fleet than the engine serves, with some
  // rows carrying a non-finite feature: replay refuses its rows outside
  // the engine's fleet and its non-finite rows exactly as per-row ingest
  // does, on the FP and the quantized path.
  ThreadCountGuard Guard;
  Machine Rig(Platform::intelSkylakeServer(), 43);
  auto Trace = makeDriftingTrace(Rig, 3000, /*DriftMax=*/0.0);
  ASSERT_TRUE(bool(Trace));
  const uint32_t NumTenants = 30, NumApps = 2;
  size_t Refused = 0;
  for (size_t I = 0; I < Trace->size(); ++I)
    Refused += Trace->tenant(I) >= NumTenants || Trace->app(I) >= NumApps;
  ASSERT_GT(Refused, 0u);

  std::vector<std::string> Names;
  for (size_t F = 0; F < Trace->width(); ++F)
    Names.push_back("pmc" + std::to_string(F));
  ml::Dataset Head(Names);
  for (size_t I = 0; I < 300; ++I)
    Head.addRow(Trace->features(I), Trace->label(I));
  std::unique_ptr<ml::Model> Lr = fittedLr(Head);
  auto Quant = ml::QuantizedModel::build(fittedLr(Head), Head);
  ASSERT_TRUE(bool(Quant));

  // Past the training head, one feature of every eleventh row turns NaN,
  // +Inf or -Inf in turn (the trace owns its features; the test writes
  // through the read accessor).
  const double NonFinite[] = {std::nan(""), INFINITY, -INFINITY};
  for (size_t I = 300; I < Trace->size(); I += 11) {
    const_cast<double *>(Trace->features(I))[I % Trace->width()] =
        NonFinite[I % 3];
    Refused += Trace->tenant(I) < NumTenants && Trace->app(I) < NumApps;
  }

  const ml::Model *Models[] = {Lr.get(), Quant->get()};
  for (const ml::Model *M : Models)
    for (unsigned Shards : {1u, 2u, 8u})
      for (unsigned Threads : {1u, 4u}) {
        SCOPED_TRACE(M->name() + ", " + std::to_string(Shards) + " shards, " +
                     std::to_string(Threads) + " threads");
        ThreadPool::setGlobalThreadCount(Threads);
        ServingConfig Config;
        Config.NumShards = Shards;
        Config.EpochSize = 700;
        Config.BatchSize = 32;
        ServingEngine Want(*M, Trace->width(), NumTenants, NumApps, Config);
        for (size_t I = 0; I < Trace->size(); ++I)
          Want.ingest(Trace->tenant(I), Trace->app(I), Trace->features(I));
        Want.endEpoch();
        ServingEngine Got(*M, Trace->width(), NumTenants, NumApps, Config);
        Got.replay(*Trace);
        EXPECT_EQ(Got.stats().Refused, Refused);
        EXPECT_EQ(Want.stats().Refused, Refused);
        EXPECT_EQ(Got.stats().Observations, Trace->size() - Refused);
        EXPECT_EQ(Got.stats().Epochs, Want.stats().Epochs);
        expectSameTables(Got, Want);
      }
}

TEST(ServingEngine, QuantizedQueriesSeeTheLastFoldWhileBatchesFlush) {
  // The quantized path flushes a shard's batch into its quanta the moment
  // the batch fills, mid-epoch; the cells queries read change only at a
  // fold. So between folds every query returns the last fold's totals,
  // and 0 before the first.
  ml::Dataset Train = miniTrainingSet(3, 0x3A);
  auto Quant = ml::QuantizedModel::build(fittedLr(Train), Train);
  ASSERT_TRUE(bool(Quant));
  MiniTrace T = makeMiniTrace(2000, 13, 3, 3, 0xF01D);
  ServingConfig Config;
  Config.NumShards = 2;
  Config.EpochSize = 500;
  Config.BatchSize = 16;
  ServingEngine Engine(**Quant, T.Width, T.NumTenants, T.NumApps, Config);
  // Every query's answer: per tenant, per app, and the fleet total.
  auto Answers = [&] {
    std::vector<double> Energy;
    std::vector<uint64_t> Counts;
    for (uint32_t Tenant = 0; Tenant < T.NumTenants; ++Tenant) {
      Energy.push_back(Engine.tenantEnergy(Tenant));
      Counts.push_back(Engine.tenantObservations(Tenant));
    }
    for (uint32_t App = 0; App < T.NumApps; ++App) {
      Energy.push_back(Engine.appEnergy(App));
      Counts.push_back(Engine.appObservations(App));
    }
    Energy.push_back(Engine.fleetEnergy());
    return std::make_pair(Energy, Counts);
  };
  auto Folded = Answers();
  for (double E : Folded.first)
    ASSERT_EQ(E, 0.0);
  for (uint64_t C : Folded.second)
    ASSERT_EQ(C, 0u);

  size_t MidEpochFlushes = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    const uint64_t Epochs = Engine.stats().Epochs;
    const uint64_t Batches = Engine.stats().Batches;
    Engine.ingest(T.Tenants[I], T.Apps[I], T.Features.data() + I * T.Width);
    if (Engine.stats().Epochs != Epochs) {
      Folded = Answers();
      ASSERT_GT(Folded.first.back(), 0.0);
    } else if (Engine.stats().Batches != Batches) {
      ++MidEpochFlushes;
      ASSERT_EQ(Answers(), Folded)
          << "after a mid-epoch flush at row " << I << ", epoch "
          << Engine.stats().Epochs;
    }
  }
  EXPECT_EQ(Engine.stats().Epochs, 4u);
  EXPECT_GT(MidEpochFlushes, 50u);
  // The last fold's totals are those of a plain replay of the trace.
  expectSameTables(Engine, replayed(**Quant, T, Config));
}
