//===- perfbench/Fleet.cpp - The fleet serving workloads ------------------===//
//
// Part of SLOPE-PMC++. See perfbench/README.md for the benchmark contract.
//
//===----------------------------------------------------------------------===//
//
// fleet-rf, fleet-rf-q and fleet-lr-retrain: a trained OnlineEstimator
// served by core::ServingEngine to a Zipf(1.1) 10k-tenant fleet over 12
// apps. One caller thread drives a closed loop: ingest calls, then the
// call that folds the epoch, then the dashboard query set, each starting
// when the previous one returns. A pass replays the whole trace through a
// fresh engine; the run repeats passes until its time is up.
//
// Every pass's attributions must be bit-identical to the first pass's and
// to a serial trace-order replica built from direct model calls; the
// quantized fleet must also stay within 1e-4 of its FP reference.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/DatasetBuilder.h"
#include "core/FleetTrace.h"
#include "core/ModelZoo.h"
#include "core/OnlineEstimator.h"
#include "core/PmcProfiler.h"
#include "core/ServingEngine.h"
#include "ml/QuantizedModel.h"
#include "ml/RlsLinearRegression.h"
#include "pmc/PlatformEvents.h"
#include "power/HclWattsUp.h"
#include "sim/TestSuite.h"

#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

using namespace slope;
using namespace slope::core;
using namespace perfbench;

namespace {

struct FleetSpec {
  ModelFamily Family;
  bool Quantized;
  bool Retrain;
  size_t Observations;
  size_t EpochSize;
  double Drift;
  unsigned Shards;
};

/// \returns the fleet named \p Name, or nothing for a name that is not a
/// fleet workload.
std::optional<FleetSpec> specOf(const std::string &Name) {
  if (Name == "fleet-rf")
    return FleetSpec{ModelFamily::RF, false, false, 65536, 8192, 0, 2};
  if (Name == "fleet-rf-q")
    return FleetSpec{ModelFamily::RF, true, false, 65536, 8192, 0, 2};
  if (Name == "fleet-lr-retrain")
    // The serving CI gate's retrain fleet: 1M labeled observations with
    // drift 0.3 (the drift ramp spans the whole trace, so the length is
    // part of the fleet's definition) on one shard. Its fold is serial
    // engine work; split over two shards, the shard tasks are so small
    // that the hand-off to the second thread dominates the fold's tail
    // and makes it swing with host load (fleet-rf covers the fan-out).
    return FleetSpec{ModelFamily::LR, false, true, 1000000, 16384, 0.3, 1};
  return std::nullopt;
}

constexpr uint32_t Tenants = 10000;
constexpr size_t NumApps = 12;
constexpr size_t TrainApps = 200;
constexpr size_t BatchSize = 256;
constexpr size_t HotTenants = 10;
constexpr size_t RlsSeedRows = 4096;

/// The paper's PA4 subset: four additive PMCs collectable in one run.
std::vector<std::string> pa4Names() {
  std::vector<std::string> Pa = pmc::skylakePaNames();
  return {Pa[0], Pa[1], Pa[3], Pa[7]};
}

/// Everything a fleet needs before it can serve.
struct Fleet {
  FleetSpec Spec;
  std::unique_ptr<sim::Machine> M;
  std::unique_ptr<power::HclWattsUp> Meter;
  std::vector<sim::CompoundApplication> Training, Apps;
  std::unique_ptr<OnlineEstimator> Estimator;
  std::shared_ptr<const FleetTrace> Trace;
  ml::Dataset SeedData; ///< Retrain only: the RLS seed rows.
  std::vector<uint32_t> Hot; ///< The 10 hottest tenants of the trace.
  double TraceBytes = 0;
};

/// One pass's engine. The online model must outlive the engine, so it is
/// declared first.
struct Pass {
  std::unique_ptr<ml::RlsLinearRegression> Online;
  std::unique_ptr<ServingEngine> Engine;
};

Pass makePass(const Fleet &F) {
  Pass P;
  ServingConfig Config;
  Config.NumShards = F.Spec.Shards;
  Config.EpochSize = F.Spec.EpochSize;
  Config.BatchSize = BatchSize;
  P.Engine = std::make_unique<ServingEngine>(F.Estimator->model(),
                                             F.Trace->width(), Tenants,
                                             F.Trace->numApps(), Config);
  if (F.Spec.Retrain) {
    P.Online = std::make_unique<ml::RlsLinearRegression>();
    auto Seeded = P.Online->fit(F.SeedData);
    if (!Seeded) {
      std::fprintf(stderr, "error: RLS seed fit: %s\n",
                   Seeded.error().message().c_str());
      std::exit(1);
    }
    P.Engine->enableOnlineRetrain(*P.Online, ml::FitAlgorithm::Rls,
                                  &F.SeedData);
  }
  return P;
}

/// Set-up before the trace exists: Machine, meter, suites and training.
void buildModel(const Options &O, Tracer *T, Fleet &F) {
  // The seed picks the load: the fleet's app suite and its trace. The
  // training population, and so the served model, stays the serving CI
  // gate's (Rng 11); the default seed also gives the gate's app suite
  // (Rng 7) and trace seed (FleetTraceConfig's default).
  const uint64_t Delta = O.Seed ^ DefaultSeed;
  {
    ScopedSpan S(T, "sim.machine", -1, 0);
    F.M = std::make_unique<sim::Machine>(sim::Platform::intelSkylakeServer(),
                                         42);
  }
  F.Meter = std::make_unique<power::HclWattsUp>(
      *F.M, std::make_unique<power::WattsUpProMeter>());
  for (const sim::Application &App :
       sim::diverseBaseSuite(F.M->platform(), TrainApps, Rng(11)))
    F.Training.emplace_back(App);
  for (const sim::Application &App :
       sim::diverseBaseSuite(F.M->platform(), NumApps, Rng(7 ^ Delta)))
    F.Apps.emplace_back(App);
  ml::setDefaultInferenceAlgorithm(F.Spec.Quantized
                                       ? ml::InferenceAlgorithm::Quantized
                                       : ml::InferenceAlgorithm::Fp);
  ScopedSpan S(T, "core.train", -1, 0);
  auto Est = OnlineEstimator::train(*F.M, *F.Meter, pa4Names(), F.Training,
                                    F.Spec.Family, /*Seed=*/1);
  if (!Est) {
    std::fprintf(stderr, "error: train: %s\n", Est.error().message().c_str());
    std::exit(1);
  }
  F.Estimator = std::make_unique<OnlineEstimator>(Est.takeValue());
  S.setItems(F.Training.size());
}

/// Set-up after the trace exists: the RLS seed rows and the first engine.
Pass buildEngine(Fleet &F) {
  if (F.Spec.Retrain) {
    std::vector<std::string> Names;
    for (size_t C = 0; C < F.Trace->width(); ++C)
      Names.push_back("pmc" + std::to_string(C));
    F.SeedData = ml::Dataset(Names);
    for (size_t I = 0; I < std::min(RlsSeedRows, F.Trace->size()); ++I)
      F.SeedData.addRow(F.Trace->features(I), F.Trace->label(I));
  }
  return makePass(F);
}

/// Builds the fleet. Set-up time excludes trace synthesis (load
/// generation): it is Machine + meter + training + RLS seed + engine.
Fleet setUp(const Options &O, const FleetSpec &Spec, Tracer *T, double &SetupS,
            Pass &First) {
  Fleet F;
  F.Spec = Spec;
  const int64_t T0 = nowNs();
  buildModel(O, T, F);
  const int64_t T1 = nowNs();

  FleetTraceConfig TC;
  TC.NumObservations = F.Spec.Observations;
  TC.NumTenants = Tenants;
  TC.DriftMax = F.Spec.Drift;
  TC.Seed ^= O.Seed ^ DefaultSeed;
  auto Trace = FleetTrace::synthesize(*F.M, F.Estimator->events(), F.Apps, TC);
  if (!Trace) {
    std::fprintf(stderr, "error: trace: %s\n", Trace.error().message().c_str());
    std::exit(1);
  }
  F.Trace = std::make_shared<const FleetTrace>(Trace.takeValue());
  F.TraceBytes = static_cast<double>(F.Trace->size()) *
                 static_cast<double>(F.Trace->width() * sizeof(double) +
                                     2 * sizeof(uint32_t) + sizeof(double));

  const int64_t T2 = nowNs();
  First = buildEngine(F);
  SetupS = static_cast<double>((T1 - T0) + (nowNs() - T2)) / 1e9;

  std::vector<uint64_t> Count(Tenants, 0);
  for (size_t I = 0; I < F.Trace->size(); ++I)
    ++Count[F.Trace->tenant(I)];
  std::vector<uint32_t> Order(Tenants);
  std::iota(Order.begin(), Order.end(), 0);
  std::partial_sort(Order.begin(), Order.begin() + HotTenants, Order.end(),
                    [&](uint32_t A, uint32_t B) {
                      return Count[A] != Count[B] ? Count[A] > Count[B] : A < B;
                    });
  F.Hot.assign(Order.begin(), Order.begin() + HotTenants);
  return F;
}

/// Per-tenant totals, per-app totals and the fleet total, summed in the
/// engine's documented orders.
std::vector<double> attributionsOf(const ServingEngine &E) {
  std::vector<double> A;
  A.reserve(Tenants + NumApps + 1);
  for (uint32_t T = 0; T < E.numTenants(); ++T)
    A.push_back(E.tenantEnergy(T));
  for (uint32_t App = 0; App < E.numApps(); ++App)
    A.push_back(E.appEnergy(App));
  A.push_back(E.fleetEnergy());
  return A;
}

/// The same derived sums over a replica's (tenant, app) cells.
std::vector<double> attributionsOf(const std::vector<double> &Cells,
                                   size_t Apps) {
  const size_t NT = Cells.size() / Apps;
  std::vector<double> A;
  A.reserve(NT + Apps + 1);
  for (size_t T = 0; T < NT; ++T) {
    double Sum = 0;
    for (size_t App = 0; App < Apps; ++App)
      Sum += Cells[T * Apps + App];
    A.push_back(Sum);
  }
  for (size_t App = 0; App < Apps; ++App) {
    double Sum = 0;
    for (size_t T = 0; T < NT; ++T)
      Sum += Cells[T * Apps + App];
    A.push_back(Sum);
  }
  double Fleet = 0;
  for (size_t T = 0; T < NT; ++T)
    Fleet += A[T];
  A.push_back(Fleet);
  return A;
}

bool bitIdentical(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// The serial replica: direct model calls over the trace in BatchSize
/// batches, accumulated per (tenant, app) cell in trace order with the
/// engine's epoch boundaries. For the retrain fleet it also scores and
/// updates its own RLS copy per epoch, exactly as the fold does.
struct Replica {
  std::vector<double> Attr;   ///< What the engine must report.
  std::vector<double> FpAttr; ///< Quantized fleet: its FP reference's.
  double Staleness = 0;
  /// Quantized fleet: rows whose prediction is off its FP reference by
  /// more than 1e-4 relative, and the worst such error.
  size_t RowsOverBound = 0;
  double WorstRowError = 0;
};

Replica replicate(const Fleet &F, Tracer *T) {
  const FleetTrace &Tr = *F.Trace;
  const size_t W = Tr.width(), N = Tr.size(), Apps = Tr.numApps();
  const auto *Q =
      dynamic_cast<const ml::QuantizedModel *>(&F.Estimator->model());
  std::unique_ptr<ml::RlsLinearRegression> Online;
  if (F.Spec.Retrain) {
    Online = std::make_unique<ml::RlsLinearRegression>();
    (void)Online->fit(F.SeedData);
  }
  const ml::Model &Fp = Q ? Q->reference()
                          : Online ? static_cast<const ml::Model &>(*Online)
                                   : F.Estimator->model();
  std::vector<double> Cells(static_cast<size_t>(Tenants) * Apps, 0);
  std::vector<double> FpCells(Q ? Cells.size() : 0, 0);
  std::vector<__int128> CellsQ(Q ? Cells.size() : 0, 0);
  std::vector<std::string> Names;
  for (size_t C = 0; C < W; ++C)
    Names.push_back("pmc" + std::to_string(C));
  ml::Dataset Batch(Names);
  Batch.reserveRows(BatchSize);
  std::vector<int32_t> QRows(BatchSize * W);
  std::vector<int64_t> PredQ(BatchSize);
  double ErrJ = 0, LabelJ = 0;
  size_t RowsOverBound = 0;
  double WorstRowError = 0;

  for (size_t E0 = 0; E0 < N; E0 += F.Spec.EpochSize) {
    const size_t E1 = std::min(N, E0 + F.Spec.EpochSize);
    for (size_t B0 = E0; B0 < E1; B0 += BatchSize) {
      const size_t B1 = std::min(E1, B0 + BatchSize);
      if (Q) {
        {
          ScopedSpan S(T, "ml.quantize_row", -1, E0 / F.Spec.EpochSize);
          for (size_t I = B0; I < B1; ++I)
            Q->quantizeRow(Tr.features(I), QRows.data() + (I - B0) * W);
          S.setItems(B1 - B0);
        }
        {
          ScopedSpan S(T, "ml.predict", -1, E0 / F.Spec.EpochSize);
          Q->predictQuantizedMany(QRows.data(), nullptr, B1 - B0, PredQ.data());
          S.setItems(B1 - B0);
        }
        for (size_t I = B0; I < B1; ++I)
          CellsQ[static_cast<size_t>(Tr.tenant(I)) * Apps + Tr.app(I)] +=
              PredQ[I - B0];
      }
      Batch.clearRows();
      for (size_t I = B0; I < B1; ++I)
        Batch.addRow(Tr.features(I), 0.0);
      std::vector<double> Pred;
      {
        // The FP model is the served one except on the quantized fleet,
        // where it is the reference the error bound is measured against.
        ScopedSpan S(Q ? nullptr : T, "ml.predict", -1, E0 / F.Spec.EpochSize);
        Pred = Fp.predictBatch(Batch);
        S.setItems(B1 - B0);
      }
      if (Q)
        for (size_t I = B0; I < B1; ++I) {
          const double Err = std::abs(Q->dequantize(PredQ[I - B0]) -
                                      Pred[I - B0]) /
                             std::abs(Pred[I - B0]);
          RowsOverBound += Err > 1e-4;
          WorstRowError = std::max(WorstRowError, Err);
        }
      std::vector<double> &Into = Q ? FpCells : Cells;
      for (size_t I = B0; I < B1; ++I)
        Into[static_cast<size_t>(Tr.tenant(I)) * Apps + Tr.app(I)] +=
            Pred[I - B0];
    }
    if (Online) {
      {
        ScopedSpan S(T, "ml.rls_predict", -1, E0 / F.Spec.EpochSize);
        for (size_t I = E0; I < E1; ++I) {
          ErrJ += std::abs(Online->predictRow(Tr.features(I)) - Tr.label(I));
          LabelJ += std::abs(Tr.label(I));
        }
        S.setItems(E1 - E0);
      }
      ScopedSpan S(T, "ml.rls_update", -1, E0 / F.Spec.EpochSize);
      for (size_t I = E0; I < E1; ++I)
        Online->update(Tr.features(I), Tr.label(I));
      S.setItems(E1 - E0);
    }
  }
  Replica R;
  if (Q) {
    for (size_t C = 0; C < Cells.size(); ++C)
      Cells[C] = static_cast<double>(CellsQ[C]) * Q->dequantScale();
    R.FpAttr = attributionsOf(FpCells, Apps);
  }
  R.Attr = attributionsOf(Cells, Apps);
  R.Staleness = LabelJ > 0 ? ErrJ / LabelJ : 0;
  R.RowsOverBound = RowsOverBound;
  R.WorstRowError = WorstRowError;
  return R;
}

/// Samples one pass contributes.
struct PassSamples {
  double ServeNs = 0; ///< Time inside ingest and fold calls.
  std::vector<double> FoldMs;
  std::vector<double> QueryUs;
  /// Traced passes: process CPU time and wall time inside fold calls.
  double FoldCpuNs = 0, FoldWallNs = 0;
};

/// Replays the whole trace through \p P's engine in a closed loop,
/// recording spans when \p T is set.
PassSamples runPass(const Fleet &F, Pass &P, Tracer *T, uint64_t &Epoch,
                    Ledger &Ops) {
  const FleetTrace &Tr = *F.Trace;
  ServingEngine &E = *P.Engine;
  const bool Labeled = F.Spec.Retrain;
  PassSamples Out;
  auto Ingest = [&](size_t I) {
    if (Labeled)
      E.ingest(Tr.tenant(I), Tr.app(I), Tr.features(I), Tr.label(I));
    else
      E.ingest(Tr.tenant(I), Tr.app(I), Tr.features(I));
  };
  for (size_t E0 = 0; E0 < Tr.size(); E0 += F.Spec.EpochSize, ++Epoch) {
    const size_t E1 = std::min(Tr.size(), E0 + F.Spec.EpochSize);
    // A full epoch folds inside its last ingest call; a trailing partial
    // epoch is folded by endEpoch().
    const bool Full = E1 - E0 == F.Spec.EpochSize;
    const size_t IngestEnd = Full ? E1 - 1 : E1;
    const uint64_t EpochsBefore = E.stats().Epochs;
    ScopedSpan Root(T, "fleet.epoch", -1, Epoch);
    const int64_t T0 = nowNs();
    {
      ScopedSpan S(T, "core.ingest", Root.id(), Epoch);
      for (size_t I = E0; I < IngestEnd; ++I)
        Ingest(I);
      S.setItems(IngestEnd - E0);
    }
    const int64_t Cpu1 = T ? cpuNs() : 0;
    const int64_t T1 = nowNs();
    {
      ScopedSpan S(T, "core.fold", Root.id(), Epoch);
      if (Full)
        Ingest(E1 - 1);
      else
        E.endEpoch();
      S.setItems(E1 - E0);
    }
    const int64_t T2 = nowNs();
    if (T) {
      Out.FoldCpuNs += static_cast<double>(cpuNs() - Cpu1);
      Out.FoldWallNs += static_cast<double>(T2 - T1);
    }
    Ops.attempt("ingest", IngestEnd - E0);
    Ops.attempt("fold");
    if (E.stats().Epochs != EpochsBefore + 1 || E.stats().Observations != E1)
      Ops.fail("fold");

    // The dashboard query set, after every fold.
    size_t NonFinite = 0;
    const int64_t T3 = nowNs();
    {
      ScopedSpan S(T, "core.query", Root.id(), Epoch);
      for (uint32_t App = 0; App < Tr.numApps(); ++App)
        NonFinite += !std::isfinite(E.appEnergy(App));
      for (uint32_t Tenant : F.Hot)
        NonFinite += !std::isfinite(E.tenantEnergy(Tenant));
      NonFinite += !std::isfinite(E.fleetEnergy());
      S.setItems(Tr.numApps() + F.Hot.size() + 1);
    }
    const int64_t T4 = nowNs();
    Ops.attempt("query", Tr.numApps() + F.Hot.size() + 1);
    Ops.fail("query", NonFinite);

    Out.ServeNs += static_cast<double>(T2 - T0);
    Out.FoldMs.push_back(static_cast<double>(T2 - T1) / 1e6);
    Out.QueryUs.push_back(static_cast<double>(T4 - T3) / 1e3);
  }
  return Out;
}

/// What must repeat exactly from pass to pass.
struct PassOutcome {
  std::vector<double> Attr;
  uint64_t Epochs = 0, Batches = 0, Retrains = 0;
  double Staleness = 0;
  size_t StatsBytes = 0;
};

PassOutcome outcomeOf(const ServingEngine &E) {
  PassOutcome O;
  O.Attr = attributionsOf(E);
  O.Epochs = E.stats().Epochs;
  O.Batches = E.stats().Batches;
  O.Retrains = E.stats().Retrains;
  O.Staleness = E.stats().stalenessError();
  O.StatsBytes = E.stats().BatchMs.size() * sizeof(double);
  return O;
}

void checkPass(const PassOutcome &Got, const PassOutcome &First,
               const Replica &Ref, const FleetSpec &Spec, size_t PassNo,
               Ledger &Ops) {
  const std::string Tag = "pass " + std::to_string(PassNo) + ": ";
  size_t NonFinite = 0;
  for (double X : Got.Attr)
    NonFinite += !std::isfinite(X);
  Ops.attempt("attribution", Got.Attr.size());
  Ops.fail("attribution", NonFinite);
  Ops.check(bitIdentical(Got.Attr, First.Attr),
            Tag + "attributions bit-identical to the first pass");
  Ops.check(Got.Epochs == First.Epochs && Got.Batches == First.Batches &&
                Got.Retrains == First.Retrains,
            Tag + "epoch, batch and retrain counts repeat");
  Ops.check(std::memcmp(&Got.Staleness, &First.Staleness, sizeof(double)) == 0,
            Tag + "staleness error bit-identical to the first pass");
  Ops.check(bitIdentical(Got.Attr, Ref.Attr),
            Tag + "attributions equal the serial trace-order replica");
  if (Spec.Retrain)
    Ops.check(Got.Staleness == Ref.Staleness,
              Tag + "staleness error equals the serial replica's");
  if (Spec.Quantized)
    Ops.check(ml::maxRelativeError(Ref.FpAttr, Got.Attr) < 1e-4,
              Tag + "quantized attributions (every tenant, app and fleet "
                    "total) within 1e-4 of the FP reference");
}

double perItem(const LayerRecord &L) {
  return L.Items ? L.WallNs / static_cast<double>(L.Items) : 0;
}

} // namespace

bool perfbench::runFleet(const Options &O, Result &R) {
  const std::optional<FleetSpec> Spec = specOf(O.Workload);
  if (!Spec)
    return false;
  std::unique_ptr<Tracer> T(O.Trace ? new Tracer : nullptr);
  Pass Current;
  Fleet F = setUp(O, *Spec, T.get(), R.SetupS, Current);
  R.Ops.attempt("setup");
  if (O.SetupOnly) {
    R.metric("setup_s", R.SetupS, "s");
    return true;
  }
  {
    Digest D;
    D.addVector(F.Hot);
    for (size_t I = 0; I < F.Trace->size(); ++I) {
      const uint32_t Ids[2] = {F.Trace->tenant(I), F.Trace->app(I)};
      D.add(Ids, sizeof Ids);
      D.add(F.Trace->features(I), F.Trace->width() * sizeof(double));
      D.addDouble(F.Trace->label(I));
    }
    R.note("trace_digest", D.hex());
  }

  // The traced run measures the replica's model calls: the inference
  // floor, quantizeRow and the RLS calls outside the engine.
  const Replica Ref = replicate(F, T.get());
  if (F.Spec.Quantized) {
    // Where the quantized twin misses the 1e-4 bound checkPass gates: the
    // rows whose forest decisions flip, and the worst tenant total.
    double WorstTenant = 0;
    for (uint32_t T = 0; T < Tenants; ++T)
      if (Ref.FpAttr[T] != 0)
        WorstTenant =
            std::max(WorstTenant, std::abs(Ref.Attr[T] - Ref.FpAttr[T]) /
                                      std::abs(Ref.FpAttr[T]));
    R.note("quantized_rows_over_1e-4",
           std::to_string(Ref.RowsOverBound) + " of " +
               std::to_string(F.Trace->size()) + ", worst " +
               std::to_string(Ref.WorstRowError));
    R.note("quantized_worst_tenant_rel_error", std::to_string(WorstTenant));
  }

  size_t CollectionRuns = 0;
  if (T) {
    // The steps inside OnlineEstimator::train, made again from outside on
    // a fresh machine with the same seed (so on the same dataset): the
    // collection plan of the model's PMCs, the training dataset, the fit.
    sim::Machine M2 = [&] {
      ScopedSpan S(T.get(), "sim.machine", -1, 0);
      return sim::Machine(sim::Platform::intelSkylakeServer(), 42);
    }();
    power::HclWattsUp Meter2(M2, std::make_unique<power::WattsUpProMeter>());
    {
      ScopedSpan S(T.get(), "pmc.collection_cost", -1, 0);
      auto Runs = PmcProfiler(M2, &Meter2).collectionCost(F.Estimator->events());
      CollectionRuns = Runs ? *Runs : 0;
      S.setItems(F.Estimator->events().size());
    }
    Expected<ml::Dataset> Data = [&] {
      ScopedSpan S(T.get(), "core.dataset", -1, 0);
      auto D = DatasetBuilder(M2, Meter2).build(F.Training,
                                                F.Estimator->events());
      S.setItems(D ? D->numRows() * D->numFeatures() : 0);
      return D;
    }();
    std::unique_ptr<ml::Model> Model = makePaperModel(F.Spec.Family, 1);
    const bool Rf = F.Spec.Family == ModelFamily::RF;
    {
      ScopedSpan S(T.get(), Rf ? "ml.fit_rf" : "ml.fit_lr", -1, 0);
      R.Ops.attempt("fit");
      if (!Data || !Model->fit(*Data))
        R.Ops.fail("fit");
      // makePaperModel grows 100 trees.
      S.setItems(Data ? Data->numRows() * (Rf ? 100 : 1) : 0);
    }
  }

  const size_t MinPasses = samplesNeeded(0.5);
  const size_t MinFolds = samplesNeeded(0.9);
  const int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  std::vector<double> ObsPerS, FoldMs, QueryUs, UntracedNs, TracedNs;
  PassOutcome First;
  uint64_t Epoch = 0;
  size_t TracedFolds = 0;
  double FoldCpuNs = 0, FoldWallNs = 0;
  for (size_t PassNo = 0;; ++PassNo) {
    const bool Traced = T && PassNo % 2 == 1;
    if (PassNo > 0)
      Current = makePass(F);
    PassSamples S = runPass(F, Current, Traced ? T.get() : nullptr, Epoch,
                            R.Ops);
    const PassOutcome Got = outcomeOf(*Current.Engine);
    if (PassNo == 0)
      First = Got;
    checkPass(Got, First, Ref, F.Spec, PassNo, R.Ops);
    R.Host.sample();
    (Traced ? TracedNs : UntracedNs).push_back(S.ServeNs);
    if (Traced) {
      TracedFolds += S.FoldMs.size();
      FoldCpuNs += S.FoldCpuNs;
      FoldWallNs += S.FoldWallNs;
    } else {
      ObsPerS.push_back(static_cast<double>(F.Trace->size()) /
                        (S.ServeNs / 1e9));
      FoldMs.insert(FoldMs.end(), S.FoldMs.begin(), S.FoldMs.end());
      QueryUs.insert(QueryUs.end(), S.QueryUs.begin(), S.QueryUs.end());
    }
    const bool Enough = T ? TracedFolds >= MinFolds && TracedNs.size() >= 3
                          : ObsPerS.size() >= MinPasses &&
                                FoldMs.size() >= MinFolds;
    if ((nowNs() >= Deadline && Enough) || PassNo >= 100000)
      break;
  }
  {
    Digest D;
    D.addVector(First.Attr);
    D.addDouble(First.Staleness);
    const uint64_t Counts[3] = {First.Epochs, First.Batches, First.Retrains};
    D.add(Counts, sizeof Counts);
    R.note("output_digest", D.hex());
  }
  R.note("passes", std::to_string(UntracedNs.size()) + " untraced, " +
                       std::to_string(TracedNs.size()) + " traced");
  R.note("folds_per_pass", std::to_string(First.Epochs));

  if (!T) {
    // A request is the call that folds an epoch; an item is one
    // observation.
    R.metric("setup_s", R.SetupS, "s");
    R.metric("peak_rss_mb", peakRssMb() - F.TraceBytes / (1 << 20), "MB");
    R.metric("request_p50_ms", R.require(percentile(FoldMs, 0.5), "fold p50"),
             "ms");
    R.metric("request_p90_ms", R.require(percentile(FoldMs, 0.9), "fold p90"),
             "ms");
    R.metric("items_per_s", R.require(percentile(ObsPerS, 0.5), "obs/s p50"),
             "1/s");
    R.detail("query_p50_us", R.require(percentile(QueryUs, 0.5), "query p50"),
             "us");
    if (F.Spec.Retrain)
      R.detail("staleness_error", First.Staleness, "ratio");
    R.note("fold_samples", std::to_string(FoldMs.size()));
    R.note("trace_mib", std::to_string(F.TraceBytes / (1 << 20)));
    return true;
  }

  R.Layers = T->aggregate();
  auto Layer = [&](const char *Name) {
    auto It = R.Layers.find(Name);
    return It == R.Layers.end() ? LayerRecord() : It->second;
  };
  const double Ingest = perItem(Layer("core.ingest"));
  const double Fold = perItem(Layer("core.fold"));
  const double Predict = perItem(Layer("ml.predict"));
  const double Quantize = perItem(Layer("ml.quantize_row"));
  const double RlsPredict = perItem(Layer("ml.rls_predict"));
  const double RlsUpdate = perItem(Layer("ml.rls_update"));
  const double Gbps = copyGbps(R);
  // The per-layer metrics every workload reports.
  R.metric("sim.machine_ms", T->medianMs("sim.machine"), "ms");
  R.metric("pmc.collection_runs", static_cast<double>(CollectionRuns), "count");
  R.metric("core.dataset_ms", T->medianMs("core.dataset"), "ms");
  R.metric("core.dataset_ns_per_cell", perItem(Layer("core.dataset")), "ns");
  R.metric("core.request_ms",
           T->perRequestMedianMs({"core.ingest", "core.fold", "core.query"}),
           "ms");
  R.metric("ml.fit_ms", T->medianMs(F.Spec.Family == ModelFamily::RF
                                        ? "ml.fit_rf"
                                        : "ml.fit_lr"),
           "ms");
  R.metric("ml.predict_ns_per_row", Predict, "ns");
  R.metric("support.parallelism", FoldCpuNs / FoldWallNs, "ratio");
  R.metric("host.copy_gbps", Gbps, "GB/s");
  R.metric("trace_overhead_pct",
           (median(TracedNs) / median(UntracedNs) - 1) * 100, "%");

  // The fleet's own layer figures.
  R.detail("core.train_ms", Layer("core.train").WallNs / 1e6, "ms");
  if (F.Spec.Family == ModelFamily::RF)
    R.detail("ml.fit_rf_ns_per_row_tree", perItem(Layer("ml.fit_rf")), "ns");
  R.detail("core.ingest_ns_per_obs", Ingest, "ns");
  R.detail("core.fold_ns_per_obs", Fold, "ns");
  if (F.Spec.Quantized)
    R.detail("ml.quantize_row_ns", Quantize, "ns");
  if (F.Spec.Retrain) {
    R.detail("ml.rls_update_ns", RlsUpdate, "ns");
    R.detail("ml.rls_predict_ns", RlsPredict, "ns");
  }
  // Serial ml work only: fleet-rf's fold predicts on the pool, so its
  // per-row predict time exceeds its fold time per observation.
  if (F.Spec.Quantized || F.Spec.Retrain)
    R.detail("core.overhead_ns_per_obs",
             Ingest + Fold - (Predict + Quantize + RlsPredict + RlsUpdate),
             "ns");
  {
    std::vector<double> Query;
    for (const Span &S : T->spans())
      if (std::strcmp(S.Name, "core.query") == 0)
        Query.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    R.detail("core.query_p90_us",
             R.require(percentile(Query, 0.9), "query p90"), "us");
  }
  R.detail("core.epochs", static_cast<double>(First.Epochs), "count");
  R.detail("core.batches", static_cast<double>(First.Batches), "count");
  R.detail("core.stats_bytes", static_cast<double>(First.StatsBytes), "B");

  // Roofline line: bytes an ingested row moves across the ingest call
  // (computed from the staging layout, not measured) against measured
  // streaming-copy bandwidth.
  const size_t W = F.Trace->width();
  const double BytesPerObs =
      F.Spec.Quantized
          ? static_cast<double>(W * sizeof(double) + W * sizeof(int32_t) +
                                sizeof(uint32_t))
          : static_cast<double>(2 * W * sizeof(double) + 2 * sizeof(uint32_t) +
                                sizeof(double) +
                                (F.Spec.Retrain ? sizeof(double) : 0));
  R.detail("core.ingest_bytes_per_obs", BytesPerObs, "B");
  R.detail("core.ingest_bw_share", Ingest > 0 ? BytesPerObs / Ingest / Gbps : 0,
           "ratio");
  R.note("ingest_bytes_per_obs", "computed from the staging layout");

  const double Split = Fold / std::max(Ingest, 1e-9);
  if (F.Spec.Quantized)
    R.note("predicted_split", std::string("ingest >> fold: ") +
                                  (Split < 0.1 ? "confirmed" : "wrong") +
                                  " (fold/ingest per obs " +
                                  std::to_string(Split) + ")");
  else if (!F.Spec.Retrain)
    R.note("predicted_split", std::string("fold >> ingest: ") +
                                  (Split > 10 ? "confirmed" : "wrong") +
                                  " (fold/ingest per obs " +
                                  std::to_string(Split) + ")");
  const std::string SpanPath = std::string(OutDir) + "/spans-" + O.Workload +
                               "-seed" + std::to_string(O.Seed) + ".jsonl";
  if (T->write(SpanPath))
    R.note("spans", SpanPath);
  return true;
}
