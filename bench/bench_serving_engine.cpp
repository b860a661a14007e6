//===- bench/bench_serving_engine.cpp - Fleet serving throughput ----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Replays a heavy-traffic fleet trace (default: one million observations
// from a Zipf-skewed 10k-tenant population over a diverse app catalogue)
// through core::ServingEngine on a trained online estimator, and prints
// the per-app and top-tenant attribution tables. Everything on stdout is
// a pure function of the trace and the model — bit-identical at any
// shard/thread count — so CI diffs the output of a 1-thread and a
// 4-thread replay while gating on the serve_ms / predictions-per-second
// numbers in the --bench-json summary.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FleetTrace.h"
#include "core/OnlineEstimator.h"
#include "core/ServingEngine.h"
#include "sim/TestSuite.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {

/// The paper's PA4 subset: four additive PMCs collectable in one run.
std::vector<std::string> pa4Names() {
  std::vector<std::string> Pa = pmc::skylakePaNames();
  return {Pa[0], Pa[1], Pa[3], Pa[7]};
}

/// \returns the model family \p Name names, or nothing for an unknown name.
std::optional<ModelFamily> parseFamily(const std::string &Name) {
  if (Name == "lr")
    return ModelFamily::LR;
  if (Name == "rf")
    return ModelFamily::RF;
  if (Name == "nn")
    return ModelFamily::NN;
  if (Name == "knn")
    return ModelFamily::Knn;
  return std::nullopt;
}

} // namespace

int main(int Argc, char **Argv) {
  // Driver-specific knobs (defaults are the CI gate's configuration).
  ServingConfig Config;
  size_t Observations = 1000000, TenantCount = 10000, NumApps = 12;
  size_t TrainApps = 200, Shards = Config.NumShards;
  ModelFamily Family = ModelFamily::RF;
  std::string FamilyName = "rf";
  // --retrain rls|refit|off: online-retrain mode. rls serves and updates
  // an RLS model (O(F^2) per observation); refit serves the same model
  // but re-solves the batch fit over the accumulated history at every
  // fold (the O(N*F^2) reference the CI gate compares against); off
  // (default) serves the frozen estimator. --drift X ramps each app's
  // energy-per-feature ratio by up to +/-X across the trace, the
  // workload shift that separates a frozen model's staleness_error from
  // a retrained one's.
  std::string Retrain = "off";
  bool RetrainSeen = false;
  double Drift = 0;
  // The counts, parsed whole: no sign, no suffix, at most nine digits
  // (so every value fits its field). 0 is refused where the engine would
  // quietly make it 1 (--epoch-size, --batch-size) or where nothing could
  // be served; --shards 0 means one shard per pool thread.
  bench::parseArgs(
      Argc, Argv,
      {bench::countFlag("--observations", Observations),
       bench::countFlag("--tenants", TenantCount),
       bench::countFlag("--apps", NumApps),
       bench::countFlag("--train-apps", TrainApps),
       bench::countFlag("--shards", Shards, 0,
                        "a count; 0 = one shard per pool thread"),
       bench::countFlag("--epoch-size", Config.EpochSize),
       bench::countFlag("--batch-size", Config.BatchSize),
       {"--family", "lr, rf, nn, knn",
        [&](const std::string &V) {
          const std::optional<ModelFamily> Kind = parseFamily(V);
          if (Kind) {
            Family = *Kind;
            FamilyName = V;
          }
          return Kind.has_value();
        }},
       {"--retrain", "rls, refit, off",
        [&](const std::string &V) {
          Retrain = V;
          RetrainSeen = true;
          return V == "rls" || V == "refit" || V == "off";
        }},
       {"--drift", "a finite number of at least 0",
        [&](const std::string &V) {
          char *End = nullptr;
          Drift = std::strtod(V.c_str(), &End);
          return !V.empty() && *End == '\0' && std::isfinite(Drift) &&
                 Drift >= 0;
        }}});
  const auto Tenants = static_cast<uint32_t>(TenantCount);
  Config.NumShards = static_cast<unsigned>(Shards);
  // --infer-algo quantized (or SLOPE_INFER_ALGO=quantized) has an integer
  // kernel for the linear families only (ml/QuantizedModel.h).
  if (ml::defaultInferenceAlgorithm() == ml::InferenceAlgorithm::Quantized &&
      Family != ModelFamily::LR && Family != ModelFamily::NN)
    bench::usageError("quantized inference serves linear models only: "
                      "unknown --family '" +
                      FamilyName + "' (accepted: lr, nn)");
  // An explicit --retrain (including "off") opts into label scoring, so
  // `--retrain off` reports the frozen model's staleness_error as the
  // baseline the retrained runs are compared against. Without the flag
  // the replay skips the serial scoring pass entirely.
  Config.ScoreLabels = RetrainSeen;

  bench::banner("Serving engine: fleet energy attribution");

  Machine M(Platform::intelSkylakeServer(), 42);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());

  // Training population: a paper-scale diverse suite, so the fitted
  // model has realistic capacity (an RF grown on a 12-row set would be
  // near-trivial trees); the fleet's app catalogue is a separate,
  // smaller suite drawn from the same kernel space.
  std::vector<CompoundApplication> TrainingApps;
  for (const Application &App :
       diverseBaseSuite(M.platform(), TrainApps, Rng(11)))
    TrainingApps.emplace_back(App);
  std::vector<Application> Bases =
      diverseBaseSuite(M.platform(), NumApps, Rng(7));
  std::vector<CompoundApplication> Apps;
  for (const Application &App : Bases)
    Apps.emplace_back(App);

  Expected<OnlineEstimator> Estimator =
      OnlineEstimator::train(M, Meter, pa4Names(), TrainingApps,
                             Family, /*Seed=*/1);
  if (!Estimator) {
    std::fprintf(stderr, "error: %s\n",
                 Estimator.error().message().c_str());
    return 1;
  }

  FleetTraceConfig TraceConfig;
  TraceConfig.NumObservations = Observations;
  TraceConfig.NumTenants = Tenants;
  TraceConfig.DriftMax = Drift;
  Expected<FleetTrace> Trace = [&] {
    bench::ScopedTimer Timer("trace_synth");
    return FleetTrace::synthesize(M, Estimator->events(), Apps, TraceConfig);
  }();
  if (!Trace) {
    std::fprintf(stderr, "error: %s\n", Trace.error().message().c_str());
    return 1;
  }

  ServingEngine Engine(Estimator->model(), Trace->width(), Tenants,
                       Trace->numApps(), Config);

  // Online-retrain mode: seed an RLS model from the head of the stream
  // (both modes fit the identical seed, so rls-vs-refit differences are
  // purely the maintenance algorithm's) and let every epoch fold feed
  // the epoch back into it.
  ml::RlsLinearRegression OnlineModel;
  ml::Dataset SeedData;
  const bool RetrainOn = Retrain == "rls" || Retrain == "refit";
  if (RetrainOn) {
    const ml::FitAlgorithm Algo = Retrain == "refit"
                                      ? ml::FitAlgorithm::Refit
                                      : ml::FitAlgorithm::Rls;
    std::vector<std::string> FeatureNames;
    for (size_t F = 0; F < Trace->width(); ++F)
      FeatureNames.push_back("pmc" + std::to_string(F));
    SeedData = ml::Dataset(FeatureNames);
    const size_t SeedRows = std::min<size_t>(4096, Trace->size());
    for (size_t I = 0; I < SeedRows; ++I)
      SeedData.addRow(Trace->features(I), Trace->label(I));
    if (auto Seeded = OnlineModel.fit(SeedData); !Seeded) {
      std::fprintf(stderr, "error: %s\n", Seeded.error().message().c_str());
      return 1;
    }
    Engine.enableOnlineRetrain(OnlineModel, Algo, &SeedData);
  }

  {
    bench::ScopedTimer Timer("serve_replay");
    Engine.replay(*Trace);
  }

  std::printf("Fleet: %zu observations, %u tenants, %zu apps, family %s\n\n",
              Trace->size(), Tenants, NumApps,
              Estimator->model().name().c_str());

  TablePrinter AppTable({"App", "Kernel", "Observations", "Energy (J)"});
  AppTable.setCaption("Per-app attributed dynamic energy.");
  for (uint32_t A = 0; A < Trace->numApps(); ++A)
    AppTable.addRow({std::to_string(A), kernelSpec(Bases[A].Kind).Name,
                     std::to_string(Engine.appObservations(A)),
                     str::scientific(Engine.appEnergy(A))});
  std::printf("%s\n", AppTable.render().c_str());

  // Top tenants by folded observation count (ties broken by tenant id,
  // so the listing is deterministic).
  std::vector<uint32_t> Order(Tenants);
  for (uint32_t T = 0; T < Tenants; ++T)
    Order[T] = T;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    uint64_t Oa = Engine.tenantObservations(A);
    uint64_t Ob = Engine.tenantObservations(B);
    return Oa != Ob ? Oa > Ob : A < B;
  });
  TablePrinter TenantTable({"Tenant", "Observations", "Energy (J)"});
  TenantTable.setCaption("Top-10 tenants by observation count.");
  for (size_t I = 0; I < std::min<size_t>(10, Order.size()); ++I)
    TenantTable.addRow({std::to_string(Order[I]),
                        std::to_string(Engine.tenantObservations(Order[I])),
                        str::scientific(Engine.tenantEnergy(Order[I]))});
  std::printf("%s\n", TenantTable.render().c_str());

  std::printf("Fleet dynamic energy: %s J across %llu observations.\n",
              str::scientific(Engine.fleetEnergy()).c_str(),
              static_cast<unsigned long long>(Engine.stats().Observations));
  std::printf("Retrain: %s; staleness error %s over %llu retrains.\n",
              Retrain.c_str(),
              str::scientific(Engine.stats().stalenessError()).c_str(),
              static_cast<unsigned long long>(Engine.stats().Retrains));

  const double ServeMs =
      static_cast<double>(phaseTotalNs(Phase::Serve)) / 1e6;
  bench::extraJsonNumbers() = {
      {"observations", static_cast<double>(Engine.stats().Observations)},
      {"epochs", static_cast<double>(Engine.stats().Epochs)},
      {"batches", static_cast<double>(Engine.stats().Batches)},
      {"shards", static_cast<double>(Engine.numShards())},
      {"predictions_per_sec",
       ServeMs > 0 ? static_cast<double>(Engine.stats().Observations) /
                         (ServeMs / 1e3)
                   : 0},
      {"batch_ms_p50", Engine.stats().batchLatencyQuantileMs(0.50)},
      {"batch_ms_p99", Engine.stats().batchLatencyQuantileMs(0.99)},
      {"retrains", static_cast<double>(Engine.stats().Retrains)},
      {"staleness_error", Engine.stats().stalenessError()},
  };
  // The attribution tables as numbers, so the quantized CI gate can check
  // FP-vs-quantized accuracy (check_speedup.py --tolerance-json attr_)
  // in the same call that checks the serve_ms speedup.
  for (uint32_t A = 0; A < Trace->numApps(); ++A)
    bench::extraJsonNumbers().emplace_back(
        "attr_app_" + std::to_string(A) + "_energy_j", Engine.appEnergy(A));
  for (size_t I = 0; I < std::min<size_t>(10, Order.size()); ++I)
    bench::extraJsonNumbers().emplace_back(
        "attr_top_tenant_" + std::to_string(I) + "_energy_j",
        Engine.tenantEnergy(Order[I]));
  bench::extraJsonNumbers().emplace_back("attr_fleet_energy_j",
                                         Engine.fleetEnergy());
  bench::writeBenchJson("serving_engine");
  return 0;
}
