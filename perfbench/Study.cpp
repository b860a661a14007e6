//===- perfbench/Study.cpp - The Class B/C study workload -----------------===//
//
// Part of SLOPE-PMC++. See perfbench/README.md for the benchmark contract.
//
//===----------------------------------------------------------------------===//
//
// Untraced: back-to-back core::runClassBC calls, closed loop, one caller.
// The first (cold) call is set-up; the warm calls are the requests. Every
// call's result must be bit-identical to the first, and at the default
// seed the first must reproduce the golden Table 6/7a/7b rows.
//
// Traced: the same calls runClassBC makes, in the same order and with the
// same inputs, made from here with a span around each call into a layer;
// every traced iteration must reproduce runClassBC's result bit for bit.
// Untraced runClassBC calls alternate with the traced iterations so the
// tracing overhead is measured in the same run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/AdditivityChecker.h"
#include "core/DatasetBuilder.h"
#include "core/Experiments.h"
#include "core/ModelZoo.h"
#include "core/PmcProfiler.h"
#include "core/PmcSelector.h"
#include "ml/LinearRegression.h"
#include "ml/Metrics.h"
#include "pmc/PlatformEvents.h"
#include "power/HclWattsUp.h"
#include "sim/TestSuite.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <fstream>
#include <sstream>

using namespace slope;
using namespace slope::core;
using namespace perfbench;

namespace {

void addRows(Digest &D, const std::vector<ModelEvalRow> &Rows) {
  for (const ModelEvalRow &Row : Rows) {
    D.addString(Row.Label);
    for (const std::string &P : Row.Pmcs)
      D.addString(P);
    D.addVector(Row.Coefficients);
    D.addDouble(Row.Errors.Min);
    D.addDouble(Row.Errors.Avg);
    D.addDouble(Row.Errors.Max);
  }
}

/// Bitwise digest of everything a study reports (Tables 6, 7a, 7b).
uint64_t digestOf(const ClassBCResult &R) {
  Digest D;
  for (const auto *Set : {&R.Pa, &R.Pna})
    for (const PmcCorrelationRow &Row : *Set) {
      D.addString(Row.Name);
      D.addDouble(Row.Correlation);
      D.addDouble(Row.AdditivityErrorPct);
      D.add(&Row.Additive, sizeof Row.Additive);
    }
  addRows(D, R.ClassB);
  addRows(D, R.ClassC);
  for (const auto *Set : {&R.Pa4, &R.Pna4})
    for (const std::string &Name : *Set)
      D.addString(Name);
  const uint64_t Rows[2] = {R.TrainRows, R.TestRows};
  D.add(Rows, sizeof Rows);
  return D.value();
}

/// Fits whose error summary is not finite count as failed.
size_t failedFits(const ClassBCResult &R) {
  size_t Failed = 0;
  for (const auto *Set : {&R.ClassB, &R.ClassC})
    for (const ModelEvalRow &Row : *Set)
      Failed += !(std::isfinite(Row.Errors.Min) &&
                  std::isfinite(Row.Errors.Avg) &&
                  std::isfinite(Row.Errors.Max));
  return Failed;
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(' '), E = S.find_last_not_of(' ');
  return B == std::string::npos ? "" : S.substr(B, E - B + 1);
}

/// Table rows of a golden file keyed by their first cell.
std::map<std::string, std::vector<std::string>>
goldenRows(const std::string &Path, std::vector<std::string> &Lines) {
  std::map<std::string, std::vector<std::string>> Rows;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    Lines.push_back(Line);
    if (Line.size() < 2 || Line[0] != '|')
      continue;
    std::vector<std::string> Cells;
    std::stringstream SS(Line.substr(1));
    std::string Cell;
    while (std::getline(SS, Cell, '|'))
      Cells.push_back(trim(Cell));
    if (!Cells.empty())
      Rows[Cells[0]] = Cells;
  }
  return Rows;
}

bool hasLine(const std::vector<std::string> &Lines, const std::string &Want) {
  for (const std::string &L : Lines)
    if (L == Want)
      return true;
  return false;
}

/// Checks \p R against the reproduced columns of the golden paper tables.
void checkGoldens(const ClassBCResult &R, const std::string &Dir,
                  Ledger &Ops) {
  std::vector<std::string> Lines6, Lines7a, Lines7b;
  auto T6 = goldenRows(Dir + "/bench_table6_correlation.txt", Lines6);
  auto T7a = goldenRows(Dir + "/bench_table7a_class_b.txt", Lines7a);
  auto T7b = goldenRows(Dir + "/bench_table7b_class_c.txt", Lines7b);
  Ops.check(!T6.empty() && !T7a.empty() && !T7b.empty(),
            "golden tables readable under " + Dir);
  auto Table6 = [&](const char *Prefix,
                    const std::vector<PmcCorrelationRow> &Set) {
    for (size_t I = 0; I < Set.size(); ++I) {
      const std::string Key = Prefix + std::to_string(I + 1);
      auto It = T6.find(Key);
      Ops.check(It != T6.end() && It->second.size() >= 5 &&
                    It->second[1] == Set[I].Name &&
                    It->second[2] == str::fixed(Set[I].Correlation, 3) &&
                    It->second[4] == str::fixed(Set[I].AdditivityErrorPct, 2),
                "table 6 row " + Key + " equals the golden row");
    }
  };
  Table6("X", R.Pa);
  Table6("Y", R.Pna);
  auto Models = [&](const char *Table,
                    std::map<std::string, std::vector<std::string>> &Golden,
                    const std::vector<ModelEvalRow> &Rows) {
    for (const ModelEvalRow &Row : Rows) {
      auto It = Golden.find(Row.Label);
      Ops.check(It != Golden.end() && It->second.size() >= 3 &&
                    It->second[2] == Row.Errors.str(),
                std::string("table ") + Table + " row " + Row.Label +
                    " equals the golden row");
    }
  };
  Models("7a", T7a, R.ClassB);
  Models("7b", T7b, R.ClassC);
  Ops.check(hasLine(Lines7a, "Train rows: " + std::to_string(R.TrainRows) +
                                 ", test rows: " +
                                 std::to_string(R.TestRows) +
                                 " (paper: 651/150)."),
            "table 7a train/test split equals the golden line");
  Ops.check(hasLine(Lines7b, "PA4  = { " + str::join(R.Pa4, ", ") + " }") &&
                hasLine(Lines7b, "PNA4 = { " + str::join(R.Pna4, ", ") + " }"),
            "table 7b PA4/PNA4 equal the golden lines");
}

std::vector<sim::CompoundApplication>
asCompounds(const std::vector<sim::Application> &Bases) {
  std::vector<sim::CompoundApplication> Out;
  Out.reserve(Bases.size());
  for (const sim::Application &Base : Bases)
    Out.emplace_back(Base);
  return Out;
}

/// Per-iteration facts of the traced study beyond the spans.
struct TracedFacts {
  size_t CollectionRuns = 0;
  size_t FitsFailed = 0;
  /// Process CPU time over wall time of the twelve-fit phase.
  double FitParallelism = 0;
};

/// runClassBC(Config), made call by call with a span around each call
/// into a layer. Mirrors core/Experiments.cpp at the default ClassBCConfig
/// (full dataset, one profiling pass); the caller checks that the result
/// is bit-identical to runClassBC's.
ClassBCResult tracedClassBC(const ClassBCConfig &Config, Tracer &T,
                            uint64_t Req, TracedFacts &Facts) {
  using namespace slope::sim;
  ScopedSpan Root(&T, "study.iteration", -1, Req);
  const int32_t P = Root.id();

  Machine M = [&] {
    ScopedSpan S(&T, "sim.machine", P, Req);
    return Machine(Platform::intelSkylakeServer(), Config.Seed ^ 0x5C7B);
  }();
  power::HclWattsUp Meter(
      M, std::make_unique<power::WattsUpProMeter>(power::WattsUpOptions(),
                                                  Config.Seed ^ 0x22));
  Rng ExperimentRng(Config.Seed);
  ClassBCResult Result;

  std::vector<Application> AddBases =
      dgemmFftAdditivityBases(Config.NumAdditivityBases);
  std::vector<CompoundApplication> AddCompounds = makeCompoundSuite(
      AddBases, Config.NumAdditivityCompounds, ExperimentRng.fork("pairs"));
  std::vector<std::string> PaNames = pmc::skylakePaNames();
  std::vector<std::string> PnaNames = pmc::skylakePnaNames();
  std::vector<pmc::EventId> PaEvents, PnaEvents;
  for (const std::string &Name : PaNames)
    PaEvents.push_back(*M.registry().lookup(Name));
  for (const std::string &Name : PnaNames)
    PnaEvents.push_back(*M.registry().lookup(Name));

  // Items: events x applications executed (bases plus compounds).
  const size_t Apps = AddBases.size() + AddCompounds.size();
  AdditivityChecker Checker(M, Config.Additivity);
  std::vector<AdditivityResult> PaAdd, PnaAdd;
  {
    ScopedSpan S(&T, "core.additivity", P, Req);
    PaAdd = Checker.checkAll(PaEvents, AddCompounds);
    S.setItems(PaEvents.size() * Apps);
  }
  {
    ScopedSpan S(&T, "core.additivity", P, Req);
    PnaAdd = Checker.checkAll(PnaEvents, AddCompounds);
    S.setItems(PnaEvents.size() * Apps);
  }

  std::vector<Application> Points = dgemmFftModelDataset();
  DatasetBuilder Builder(M, Meter);
  std::vector<std::string> AllNames = PaNames;
  AllNames.insert(AllNames.end(), PnaNames.begin(), PnaNames.end());
  std::vector<CompoundApplication> PointCompounds = asCompounds(Points);
  {
    // A pure scheduling query: plans the 18-PMC collection, runs nothing.
    ScopedSpan S(&T, "pmc.collection_cost", P, Req);
    std::vector<pmc::EventId> AllEvents = PaEvents;
    AllEvents.insert(AllEvents.end(), PnaEvents.begin(), PnaEvents.end());
    auto Runs = PmcProfiler(M, &Meter).collectionCost(AllEvents);
    Facts.CollectionRuns = Runs ? *Runs : 0;
    S.setItems(AllEvents.size());
  }
  ml::Dataset Full;
  {
    ScopedSpan S(&T, "core.dataset", P, Req);
    Full = *Builder.buildByName(PointCompounds, AllNames);
    S.setItems(Full.numRows() * Full.numFeatures());
  }

  std::vector<double> Correlations;
  {
    ScopedSpan S(&T, "core.select", P, Req);
    Correlations = energyCorrelations(Full);
    S.setItems(Full.numFeatures());
  }
  auto MakeRows = [&](const std::vector<std::string> &Names,
                      const std::vector<AdditivityResult> &Add) {
    std::vector<PmcCorrelationRow> Rows;
    for (size_t I = 0; I < Names.size(); ++I) {
      PmcCorrelationRow Row;
      Row.Name = Names[I];
      Row.Correlation = Correlations[Full.indexOfFeature(Names[I])];
      Row.AdditivityErrorPct = Add[I].MaxErrorPct;
      Row.Additive = Add[I].Additive;
      Rows.push_back(Row);
    }
    return Rows;
  };
  Result.Pa = MakeRows(PaNames, PaAdd);
  Result.Pna = MakeRows(PnaNames, PnaAdd);

  size_t TrainRows = std::min(Config.TrainRows, Full.numRows());
  double TestFraction = 1.0 - static_cast<double>(TrainRows) /
                                  static_cast<double>(Full.numRows());
  auto [Train, Test] = Full.split(TestFraction, ExperimentRng.fork("split"));
  Result.TrainRows = Train.numRows();
  Result.TestRows = Test.numRows();

  Result.ClassB.resize(6);
  {
    ScopedSpan S(&T, "core.select", P, Req);
    Result.Pa4 = selectMostCorrelated(Full.selectFeatures(PaNames), 4);
    Result.Pna4 = selectMostCorrelated(Full.selectFeatures(PnaNames), 4);
    S.setItems(PaNames.size() + PnaNames.size());
  }
  Result.ClassC.resize(6);

  const std::vector<std::string> *SubsetNames[4] = {&PaNames, &PnaNames,
                                                    &Result.Pa4, &Result.Pna4};
  std::vector<ml::Dataset> SubTrain(4), SubTest(4);
  parallelFor(0, 4, 1, [&](size_t I) {
    SubTrain[I] = Train.selectFeatures(*SubsetNames[I]);
    SubTest[I] = Test.selectFeatures(*SubsetNames[I]);
  });

  // The twelve-model phase: same task order, seeds and factories as
  // runClassBC (its budget knobs are the paper defaults makePaperModel
  // uses, so the traced fits are the same fits).
  const ModelFamily AllFamilies[] = {ModelFamily::LR, ModelFamily::RF,
                                     ModelFamily::NN};
  const char *FitSpan[] = {"ml.fit_lr", "ml.fit_rf", "ml.fit_nn"};
  std::vector<char> FitOk(12, 0);
  const int64_t Cpu0 = cpuNs(), Wall0 = nowNs();
  {
    ScopedSpan Phase(&T, "ml.fit_phase", P, Req);
    const int32_t PhaseId = Phase.id();
    parallelFor(0, 12, 1, [&](size_t Task) {
      const size_t FamilyIdx = (Task % 6) / 2;
      ModelFamily Family = AllFamilies[FamilyIdx];
      std::string Base = modelFamilyName(Family);
      bool Additive = (Task % 2) == 0;
      size_t Subset = (Task < 6 ? 0 : 2) + (Additive ? 0 : 1);
      uint64_t Seed = Config.Seed + (Task < 6 ? (Additive ? 31 : 37)
                                              : (Additive ? 41 : 43));
      ModelEvalRow Row;
      Row.Label = Base + (Task < 6 ? (Additive ? "-A" : "-NA")
                                   : (Additive ? "-A4" : "-NA4"));
      Row.Pmcs = *SubsetNames[Subset];
      std::unique_ptr<ml::Model> Model = makePaperModel(Family, Seed);
      {
        ScopedSpan S(&T, FitSpan[FamilyIdx], PhaseId, Req);
        FitOk[Task] = static_cast<bool>(Model->fit(SubTrain[Subset]));
        const uint64_t Rows = SubTrain[Subset].numRows();
        S.setItems(Family == ModelFamily::RF   ? Rows * Config.RfTrees
                   : Family == ModelFamily::NN ? Rows * Config.NnEpochs
                                               : Rows);
      }
      {
        ScopedSpan S(&T, "ml.eval", PhaseId, Req);
        Row.Errors = ml::evaluateModel(*Model, SubTest[Subset]);
        S.setItems(SubTest[Subset].numRows());
      }
      if (Family == ModelFamily::LR)
        Row.Coefficients =
            static_cast<const ml::LinearRegression &>(*Model).coefficients();
      (Task < 6 ? Result.ClassB[Task] : Result.ClassC[Task - 6]) =
          std::move(Row);
    });
  }
  Facts.FitParallelism = static_cast<double>(cpuNs() - Cpu0) /
                         static_cast<double>(nowNs() - Wall0);
  for (char Ok : FitOk)
    Facts.FitsFailed += !Ok;
  return Result;
}

} // namespace

void perfbench::runStudy(const Options &O, Result &R) {
  ClassBCConfig Config;
  Config.Seed = O.Seed;

  // Set-up: the first, cold call (pool start, first touch, lazy init).
  const int64_t T0 = nowNs();
  ClassBCResult First = runClassBC(Config);
  R.SetupS = static_cast<double>(nowNs() - T0) / 1e9;
  R.Ops.attempt("study");
  R.Ops.attempt("fit", 12);
  R.Ops.fail("fit", failedFits(First));
  if (O.SetupOnly) {
    R.metric("setup_s", R.SetupS, "s");
    return;
  }
  const uint64_t Expected = digestOf(First);
  if (O.Seed == DefaultSeed)
    checkGoldens(First, GoldenDir, R.Ops);
  Digest Out;
  Out.add(&Expected, sizeof Expected);
  R.note("output_digest", Out.hex());

  const int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  auto Run = [&](auto &&Call, std::vector<double> &Samples) {
    const int64_t Start = nowNs();
    ClassBCResult Res = Call();
    Samples.push_back(static_cast<double>(nowNs() - Start) / 1e9);
    R.Ops.attempt("study");
    R.Ops.attempt("fit", 12);
    R.Ops.fail("fit", failedFits(Res));
    R.Ops.check(digestOf(Res) == Expected,
                "study " + std::to_string(Samples.size()) +
                    " is bit-identical to the first");
    R.Host.sample();
  };

  if (!O.Trace) {
    // A request is one warm study; an item is one study, so items_per_s
    // is the study rate at paper scale.
    std::vector<double> Warm, Rate;
    while ((nowNs() < Deadline || Warm.size() < samplesNeeded(0.9)) &&
           Warm.size() < 100000) {
      Run([&] { return runClassBC(Config); }, Warm);
      Rate.push_back(1.0 / Warm.back());
    }
    R.metric("setup_s", R.SetupS, "s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    R.metric("request_p50_ms",
             1e3 * R.require(percentile(Warm, 0.5), "study p50"), "ms");
    R.metric("request_p90_ms",
             1e3 * R.require(percentile(Warm, 0.9), "study p90"), "ms");
    R.metric("items_per_s", R.require(percentile(Rate, 0.5), "study rate"),
             "1/s");
    R.note("study_samples", std::to_string(Warm.size()));
    return;
  }

  // Traced: alternate untraced runClassBC with traced iterations.
  Tracer T;
  std::vector<double> Untraced, Traced, Parallelism;
  size_t CollectionRuns = 0;
  uint64_t Iter = 0;
  while ((nowNs() < Deadline || Traced.size() < samplesNeeded(0.5)) &&
         Traced.size() < 100000) {
    Run([&] { return runClassBC(Config); }, Untraced);
    TracedFacts Facts;
    Run([&] { return tracedClassBC(Config, T, Iter, Facts); }, Traced);
    R.Ops.fail("fit", Facts.FitsFailed);
    CollectionRuns = Facts.CollectionRuns;
    Parallelism.push_back(Facts.FitParallelism);
    ++Iter;
  }
  R.Layers = T.aggregate();
  auto PerItem = [&](const char *Name) {
    const LayerRecord &L = R.Layers[Name];
    return L.Items ? L.WallNs / static_cast<double>(L.Items) : 0;
  };
  // The per-layer metrics every workload reports.
  R.metric("sim.machine_ms", T.medianMs("sim.machine"), "ms");
  R.metric("pmc.collection_runs", static_cast<double>(CollectionRuns), "count");
  R.metric("core.dataset_ms", T.perRequestMedianMs({"core.dataset"}), "ms");
  R.metric("core.dataset_ns_per_cell", PerItem("core.dataset"), "ns");
  R.metric("core.request_ms",
           T.perRequestMedianMs({"core.additivity", "core.dataset",
                                 "core.select"}),
           "ms");
  R.metric("ml.fit_ms",
           T.perRequestMedianMs({"ml.fit_lr", "ml.fit_rf", "ml.fit_nn"}),
           "ms");
  R.metric("ml.predict_ns_per_row", PerItem("ml.eval"), "ns");
  R.metric("support.parallelism", median(Parallelism), "ratio");
  R.metric("host.copy_gbps", copyGbps(R), "GB/s");
  R.metric("trace_overhead_pct",
           (median(Traced) / median(Untraced) - 1) * 100, "%");

  // The study's own layer figures.
  R.detail("core.additivity_ms", T.perRequestMedianMs({"core.additivity"}),
           "ms");
  R.detail("core.additivity_ns_per_read", PerItem("core.additivity"), "ns");
  R.detail("core.select_ms", T.perRequestMedianMs({"core.select"}), "ms");
  R.detail("ml.fit_lr_ms", T.perRequestMedianMs({"ml.fit_lr"}), "ms");
  R.detail("ml.fit_rf_ms", T.perRequestMedianMs({"ml.fit_rf"}), "ms");
  R.detail("ml.fit_nn_ms", T.perRequestMedianMs({"ml.fit_nn"}), "ms");
  R.detail("ml.fit_rf_ns_per_row_tree", PerItem("ml.fit_rf"), "ns");
  R.detail("ml.fit_nn_ns_per_row_epoch", PerItem("ml.fit_nn"), "ns");
  R.detail("ml.eval_ms", T.perRequestMedianMs({"ml.eval"}), "ms");
  R.note("study_samples", std::to_string(Untraced.size()) + " untraced, " +
                              std::to_string(Traced.size()) + " traced");
  const std::string SpanPath = std::string(OutDir) + "/spans-study-seed" +
                               std::to_string(O.Seed) + ".jsonl";
  if (T.write(SpanPath))
    R.note("spans", SpanPath);
}
