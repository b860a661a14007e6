//===- core/Experiments.cpp - Class A/B/C/D experiment drivers -----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include "core/DatasetBuilder.h"
#include "core/PmcSelector.h"
#include "ml/Metrics.h"
#include "pmc/PlatformEvents.h"
#include "sim/TestSuite.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <iterator>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {

/// Fits a model of \p Family on the pre-selected train/test datasets and
/// evaluates it, producing one table row. \p SubTrain / \p SubTest must be
/// restricted to the \p Pmcs columns already — the subset datasets are
/// built once per subset and shared across the model families and sweep
/// passes instead of being re-copied per variant.
ModelEvalRow evaluateSubset(ModelFamily Family, const std::string &Label,
                            const std::vector<std::string> &Pmcs,
                            const ml::Dataset &SubTrain,
                            const ml::Dataset &SubTest, uint64_t Seed,
                            unsigned NnEpochs, size_t RfTrees) {
  ModelEvalRow Row;
  Row.Label = Label;
  Row.Pmcs = Pmcs;
  assert(SubTrain.numFeatures() == Pmcs.size() &&
         SubTest.numFeatures() == Pmcs.size() &&
         "expected pre-selected subset datasets");
  std::unique_ptr<ml::Model> M =
      makePaperModel(Family, Seed, NnEpochs, RfTrees);
  [[maybe_unused]] auto Fit = M->fit(SubTrain);
  assert(Fit && "experiment model failed to fit");
  Row.Errors = ml::evaluateModel(*M, SubTest);
  if (Family == ModelFamily::LR)
    Row.Coefficients =
        static_cast<const ml::LinearRegression &>(*M).coefficients();
  return Row;
}

/// Wraps base applications as single-phase compounds for the builder.
std::vector<CompoundApplication>
asCompounds(const std::vector<Application> &Bases) {
  std::vector<CompoundApplication> Out;
  Out.reserve(Bases.size());
  for (const Application &Base : Bases)
    Out.emplace_back(Base);
  return Out;
}

/// Per-core energy normalization for cross-platform transfer: dividing a
/// platform's measured energies by this scale removes the TDP ratio
/// between platforms, so transfer error reflects counter semantics
/// rather than absolute wattage. Mirrors EnergyModel's per-core scaling
/// (the Haswell reference scales to 1.0).
double perCoreEnergyScale(const Platform &P) {
  return (P.TdpWatts / static_cast<double>(P.totalCores())) / 10.0;
}

/// Rebuilds \p In with canonical feature names (same column order) and
/// targets divided by \p EnergyScale.
ml::Dataset canonicalizeDataset(const ml::Dataset &In,
                                const std::vector<std::string> &Canonical,
                                double EnergyScale) {
  assert(In.numFeatures() == Canonical.size() &&
         "canonical rename must preserve the column count");
  ml::Dataset Out{std::vector<std::string>(Canonical)};
  Out.reserveRows(In.numRows());
  std::vector<double> Row;
  for (size_t R = 0; R < In.numRows(); ++R) {
    In.gatherRow(R, Row);
    Out.addRow(Row, In.target(R) / EnergyScale);
  }
  return Out;
}

/// Elementwise sum of same-schema datasets: the board-level view of a
/// heterogeneous platform (features and energies summed over clusters in
/// the order given).
ml::Dataset sumDatasets(const std::vector<ml::Dataset> &Parts) {
  assert(!Parts.empty() && "need at least one cluster dataset");
  ml::Dataset Out{std::vector<std::string>(Parts.front().featureNames())};
  Out.reserveRows(Parts.front().numRows());
  std::vector<double> Row, Acc;
  for (size_t R = 0; R < Parts.front().numRows(); ++R) {
    Acc.assign(Parts.front().numFeatures(), 0.0);
    double Target = 0;
    for (const ml::Dataset &Part : Parts) {
      assert(Part.numRows() == Parts.front().numRows() &&
             Part.numFeatures() == Parts.front().numFeatures() &&
             "cluster datasets must align row-for-row");
      Part.gatherRow(R, Row);
      for (size_t F = 0; F < Row.size(); ++F)
        Acc[F] += Row[F];
      Target += Part.target(R);
    }
    Out.addRow(Acc, Target);
  }
  return Out;
}

/// Everything Class D needs from one profiled platform.
struct ClassDPlatformData {
  ClassDPlatformInfo Info;
  ml::Dataset Train; ///< Canonical-named, scale-normalized; base apps.
  ml::Dataset Test;  ///< Same schema; compound apps.
  /// big.LITTLE only: the per-cluster datasets the board view sums.
  std::vector<ml::Dataset> ClusterTrain, ClusterTest;
};

/// Canonical counters resolvable on \p Registry, in dictionary order,
/// with their native spellings.
void resolveCanonicalSet(const pmc::EventRegistry &Registry,
                         std::vector<std::string> &Canonical,
                         std::vector<std::string> &Native) {
  for (const pmc::CanonicalCounter &Counter : pmc::canonicalCounters()) {
    auto Resolved = pmc::resolveCanonicalCounter(Registry, Counter.Canonical);
    if (!Resolved)
      continue;
    Canonical.push_back(Counter.Canonical);
    Native.push_back(*Resolved);
  }
}

/// Profiles one machine: empirical additivity of \p Native over the
/// compound suite, then train (bases) / test (compounds) datasets.
void profileMachine(Machine &M, power::HclWattsUp &Meter,
                    const std::vector<Application> &Bases,
                    const std::vector<CompoundApplication> &Compounds,
                    const std::vector<std::string> &Native,
                    const AdditivityTestConfig &Additivity,
                    std::vector<bool> &AdditiveOut, ml::Dataset &TrainOut,
                    ml::Dataset &TestOut) {
  std::vector<pmc::EventId> Events;
  for (const std::string &Name : Native)
    Events.push_back(*M.registry().lookup(Name));
  AdditivityChecker Checker(M, Additivity);
  std::vector<AdditivityResult> Results = Checker.checkAll(Events, Compounds);
  AdditiveOut.clear();
  for (const AdditivityResult &R : Results)
    AdditiveOut.push_back(R.Additive);
  DatasetBuilder Builder(M, Meter);
  TrainOut = *Builder.build(asCompounds(Bases), Events);
  TestOut = *Builder.build(Compounds, Events);
}

/// Profiles one Class D platform end to end. Homogeneous platforms use
/// one machine; heterogeneous ones get one machine and meter per cluster
/// (counts and energies summed in cluster order for the board view).
ClassDPlatformData profilePlatform(const std::string &Key, const Platform &P,
                                   const ClassDConfig &Config,
                                   uint64_t MachineSeed) {
  ClassDPlatformData Data;
  Data.Info.Key = Key;
  Data.Info.Name = P.Name;

  // The app suite is derived from the board platform so every cluster of
  // a heterogeneous SoC runs the same applications, row for row.
  Rng SuiteRng(Config.Seed);
  std::vector<Application> Bases = diverseBaseSuite(
      P, Config.NumBaseApps, SuiteRng.fork(Key + "-bases"));
  std::vector<CompoundApplication> Compounds = makeCompoundSuite(
      Bases, Config.NumCompounds, SuiteRng.fork(Key + "-pairs"));

  // Low-power boards are metered with a lab-grade sampler (SmartPower2
  // class): the WattsUp's 0.1 W quantization would swamp a sub-watt
  // cluster's dynamic power.
  power::WattsUpOptions MeterOpts;
  if (P.TdpWatts < 20)
    MeterOpts.QuantizationW = 0.001;

  std::vector<std::string> Native;
  if (!P.isHeterogeneous()) {
    Machine M(P, MachineSeed);
    resolveCanonicalSet(M.registry(), Data.Info.Canonical, Native);
    power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>(
                                   MeterOpts, MachineSeed ^ 0x22));
    std::vector<bool> Additive;
    ml::Dataset TrainNative, TestNative;
    profileMachine(M, Meter, Bases, Compounds, Native, Config.Additivity,
                   Additive, TrainNative, TestNative);
    double Scale = perCoreEnergyScale(P);
    Data.Train = canonicalizeDataset(TrainNative, Data.Info.Canonical, Scale);
    Data.Test = canonicalizeDataset(TestNative, Data.Info.Canonical, Scale);
    for (size_t I = 0; I < Additive.size(); ++I)
      if (Additive[I])
        Data.Info.AdditiveCanonical.push_back(Data.Info.Canonical[I]);
    return Data;
  }

  // Heterogeneous: one machine per cluster. A canonical counter is
  // available/additive for the platform iff it is on every cluster; the
  // board energy scale normalizes all cluster energies so summed cluster
  // attributions line up with the summed (board) target.
  double Scale = perCoreEnergyScale(P);
  std::vector<bool> AllAdditive;
  for (size_t C = 0; C < P.numClusters(); ++C) {
    Platform ClusterP = P.clusterPlatform(C);
    Machine M(ClusterP, MachineSeed + 0x101 * C);
    std::vector<std::string> ClusterCanonical, ClusterNative;
    resolveCanonicalSet(M.registry(), ClusterCanonical, ClusterNative);
    if (C == 0) {
      Data.Info.Canonical = ClusterCanonical;
      Native = ClusterNative;
    } else {
      assert(ClusterCanonical == Data.Info.Canonical &&
             ClusterNative == Native &&
             "clusters must agree on the canonical counter set");
    }
    power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>(
                                   MeterOpts, (MachineSeed + 0x101 * C) ^
                                                  0x22));
    std::vector<bool> Additive;
    ml::Dataset TrainNative, TestNative;
    profileMachine(M, Meter, Bases, Compounds, Native, Config.Additivity,
                   Additive, TrainNative, TestNative);
    Data.ClusterTrain.push_back(
        canonicalizeDataset(TrainNative, Data.Info.Canonical, Scale));
    Data.ClusterTest.push_back(
        canonicalizeDataset(TestNative, Data.Info.Canonical, Scale));
    if (C == 0)
      AllAdditive = Additive;
    else
      for (size_t I = 0; I < AllAdditive.size(); ++I)
        AllAdditive[I] = AllAdditive[I] && Additive[I];
  }
  Data.Train = sumDatasets(Data.ClusterTrain);
  Data.Test = sumDatasets(Data.ClusterTest);
  for (size_t I = 0; I < AllAdditive.size(); ++I)
    if (AllAdditive[I])
      Data.Info.AdditiveCanonical.push_back(Data.Info.Canonical[I]);
  return Data;
}

/// \returns the members of \p Set (canonical order) present in both
/// \p A and \p B.
std::vector<std::string> intersectSets(const std::vector<std::string> &A,
                                       const std::vector<std::string> &B) {
  std::vector<std::string> Out;
  for (const std::string &Name : A)
    if (std::find(B.begin(), B.end(), Name) != B.end())
      Out.push_back(Name);
  return Out;
}

} // namespace

ClassAResult core::runClassA(const ClassAConfig &Config) {
  Machine M(Platform::intelHaswellServer(), Config.Seed);
  power::HclWattsUp Meter(
      M, std::make_unique<power::WattsUpProMeter>(power::WattsUpOptions(),
                                                  Config.Seed ^ 0x11));

  Rng ExperimentRng(Config.Seed);
  std::vector<Application> Bases = diverseBaseSuite(
      M.platform(), Config.NumBaseApps, ExperimentRng.fork("bases"));
  std::vector<CompoundApplication> Compounds = makeCompoundSuite(
      Bases, Config.NumCompounds, ExperimentRng.fork("pairs"));

  // The six selected PMCs, X1..X6.
  std::vector<pmc::EventId> Events;
  for (const std::string &Name : pmc::haswellClassAPmcNames())
    Events.push_back(*M.registry().lookup(Name));

  ClassAResult Result;
  AdditivityChecker Checker(M, Config.Additivity);
  Result.AdditivityTable = Checker.checkAll(Events, Compounds);

  // Train on base applications, test on the serial compounds — models
  // must predict the energy of executions they never saw, from counters
  // whose additivity they implicitly rely on.
  DatasetBuilder Builder(M, Meter);
  ml::Dataset Train = *Builder.build(asCompounds(Bases), Events);
  ml::Dataset Test = *Builder.build(Compounds, Events);
  Result.TrainRows = Train.numRows();
  Result.TestRows = Test.numRows();

  // The 3 x |Subsets| model variants are pure functions of (family,
  // subset, seed, datasets), so the whole sweep parallelizes over variant
  // slots; seeds match the serial sweep exactly. Variants whose family is
  // masked out are skipped without touching any other variant's inputs.
  std::vector<std::vector<std::string>> Subsets =
      nestedSubsetsByAdditivity(Result.AdditivityTable);
  Result.Lr.resize(Subsets.size());
  Result.Rf.resize(Subsets.size());
  Result.Nn.resize(Subsets.size());
  // Each subset's train/test datasets are shared by the three model
  // families, so select the columns once per subset rather than three
  // times.
  std::vector<ml::Dataset> SubTrain(Subsets.size()), SubTest(Subsets.size());
  parallelFor(0, Subsets.size(), 1, [&](size_t I) {
    SubTrain[I] = Train.selectFeatures(Subsets[I]);
    SubTest[I] = Test.selectFeatures(Subsets[I]);
  });
  parallelFor(0, Subsets.size() * 3, 1, [&](size_t Task) {
    size_t I = Task / 3;
    std::string Index = std::to_string(I + 1);
    switch (Task % 3) {
    case 0:
      if (Config.Families & ClassAConfig::FamilyLR)
        Result.Lr[I] = evaluateSubset(
            ModelFamily::LR, "LR" + Index, Subsets[I], SubTrain[I],
            SubTest[I], Config.Seed + I, Config.NnEpochs, Config.RfTrees);
      break;
    case 1:
      if (Config.Families & ClassAConfig::FamilyRF)
        Result.Rf[I] = evaluateSubset(
            ModelFamily::RF, "RF" + Index, Subsets[I], SubTrain[I],
            SubTest[I], Config.Seed + I, Config.NnEpochs, Config.RfTrees);
      break;
    default:
      if (Config.Families & ClassAConfig::FamilyNN)
        Result.Nn[I] = evaluateSubset(
            ModelFamily::NN, "NN" + Index, Subsets[I], SubTrain[I],
            SubTest[I], Config.Seed + I, Config.NnEpochs, Config.RfTrees);
      break;
    }
  });
  return Result;
}

ClassBCResult core::runClassBC(const ClassBCConfig &Config) {
  Machine M(Platform::intelSkylakeServer(), Config.Seed ^ 0x5C7B);
  power::HclWattsUp Meter(
      M, std::make_unique<power::WattsUpProMeter>(power::WattsUpOptions(),
                                                  Config.Seed ^ 0x22));

  Rng ExperimentRng(Config.Seed);
  ClassBCResult Result;

  // --- Additivity over the DGEMM/FFT base + compound datasets.
  std::vector<Application> AddBases =
      dgemmFftAdditivityBases(Config.NumAdditivityBases);
  std::vector<CompoundApplication> AddCompounds = makeCompoundSuite(
      AddBases, Config.NumAdditivityCompounds, ExperimentRng.fork("pairs"));

  std::vector<std::string> PaNames = pmc::skylakePaNames();
  std::vector<std::string> PnaNames = pmc::skylakePnaNames();
  std::vector<pmc::EventId> PaEvents, PnaEvents, AllEvents;
  for (const std::string &Name : PaNames)
    PaEvents.push_back(*M.registry().lookup(Name));
  for (const std::string &Name : PnaNames)
    PnaEvents.push_back(*M.registry().lookup(Name));
  AllEvents = PaEvents;
  AllEvents.insert(AllEvents.end(), PnaEvents.begin(), PnaEvents.end());

  AdditivityChecker Checker(M, Config.Additivity);
  std::vector<AdditivityResult> PaAdd =
      Checker.checkAll(PaEvents, AddCompounds);
  std::vector<AdditivityResult> PnaAdd =
      Checker.checkAll(PnaEvents, AddCompounds);

  // --- The 801-point model dataset.
  std::vector<Application> Points = dgemmFftModelDataset();
  if (Config.MaxDatasetPoints != 0 &&
      Points.size() > Config.MaxDatasetPoints) {
    // Subsample evenly for quick runs.
    std::vector<Application> Reduced;
    double Stride = static_cast<double>(Points.size()) /
                    static_cast<double>(Config.MaxDatasetPoints);
    for (size_t I = 0; I < Config.MaxDatasetPoints; ++I)
      Reduced.push_back(Points[static_cast<size_t>(I * Stride)]);
    Points = std::move(Reduced);
  }

  DatasetBuilder Builder(M, Meter);
  std::vector<std::string> AllNames = PaNames;
  AllNames.insert(AllNames.end(), PnaNames.begin(), PnaNames.end());
  std::vector<CompoundApplication> PointCompounds = asCompounds(Points);
  ml::Dataset Full = *Builder.buildByName(PointCompounds, AllNames);

  // Extra profiling passes for perf gates: they re-run the campaign after
  // the real one and are discarded, so nothing downstream (and no table)
  // changes, while Phase::Profile grows past runner timing noise.
  for (unsigned Pass = 1; Pass < Config.ProfileRepeat; ++Pass) {
    (void)Checker.checkAll(PaEvents, AddCompounds);
    (void)Checker.checkAll(PnaEvents, AddCompounds);
    (void)Builder.buildByName(PointCompounds, AllNames);
  }

  // --- Table 6: correlation with dynamic energy over the full dataset.
  std::vector<double> Correlations = energyCorrelations(Full);
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

  // --- Train/test split (shuffled once, fixed by seed).
  size_t TrainRows = std::min(Config.TrainRows, Full.numRows());
  double TestFraction =
      1.0 - static_cast<double>(TrainRows) /
                static_cast<double>(Full.numRows());
  auto [Train, Test] = Full.split(TestFraction, ExperimentRng.fork("split"));
  Result.TrainRows = Train.numRows();
  Result.TestRows = Test.numRows();

  // --- Class B and C sweeps: like Class A, every variant is independent,
  // so both tables' twelve models train concurrently.
  const ModelFamily AllFamilies[] = {ModelFamily::LR, ModelFamily::RF,
                                     ModelFamily::NN};

  // Class B: nine-PMC application-specific models.
  Result.ClassB.resize(6);
  // Class C: four-PMC online models, picked by energy correlation within
  // each set (the paper's PA4 / PNA4 construction).
  Result.Pa4 = selectMostCorrelated(Full.selectFeatures(PaNames), 4);
  Result.Pna4 = selectMostCorrelated(Full.selectFeatures(PnaNames), 4);
  Result.ClassC.resize(6);

  // Four distinct feature subsets serve the twelve variants; build each
  // subset's train/test datasets once and share them across families.
  const std::vector<std::string> *SubsetNames[4] = {&PaNames, &PnaNames,
                                                    &Result.Pa4, &Result.Pna4};
  std::vector<ml::Dataset> SubTrain(4), SubTest(4);
  parallelFor(0, 4, 1, [&](size_t I) {
    SubTrain[I] = Train.selectFeatures(*SubsetNames[I]);
    SubTest[I] = Test.selectFeatures(*SubsetNames[I]);
  });

  parallelFor(0, 12, 1, [&](size_t Task) {
    ModelFamily Family = AllFamilies[(Task % 6) / 2];
    std::string Base = modelFamilyName(Family);
    bool Additive = (Task % 2) == 0;
    size_t Subset = (Task < 6 ? 0 : 2) + (Additive ? 0 : 1);
    if (Task < 6)
      Result.ClassB[Task] = evaluateSubset(
          Family, Base + (Additive ? "-A" : "-NA"), *SubsetNames[Subset],
          SubTrain[Subset], SubTest[Subset],
          Config.Seed + (Additive ? 31 : 37), Config.NnEpochs,
          Config.RfTrees);
    else
      Result.ClassC[Task - 6] = evaluateSubset(
          Family, Base + (Additive ? "-A4" : "-NA4"), *SubsetNames[Subset],
          SubTrain[Subset], SubTest[Subset],
          Config.Seed + (Additive ? 41 : 43), Config.NnEpochs,
          Config.RfTrees);
  });
  return Result;
}

ClassDResult core::runClassD(const ClassDConfig &Config) {
  // Platform zoo in fixed presentation order. Each platform's profiling
  // campaign is independent and internally deterministic, so the serial
  // platform loop produces bit-identical data at any thread count.
  struct ZooEntry {
    const char *Key;
    Platform P;
    uint64_t SeedSalt;
  };
  const ZooEntry Zoo[] = {
      {"haswell", Platform::intelHaswellServer(), 0},
      {"skylake", Platform::intelSkylakeServer(), 0x5C7B},
      {"zen2", Platform::amdZen2Server(), 0x3D92},
      {"biglittle", Platform::armBigLittle(), 0xB167},
  };
  const size_t NumPlatforms = std::size(Zoo);

  std::vector<ClassDPlatformData> Data;
  for (const ZooEntry &Entry : Zoo)
    Data.push_back(profilePlatform(Entry.Key, Entry.P, Config,
                                   Config.Seed ^ Entry.SeedSalt));

  ClassDResult Result;
  for (const ClassDPlatformData &D : Data)
    Result.Platforms.push_back(D.Info);
  Result.TrainRowsPerPlatform = Data.front().Train.numRows();
  Result.TestRowsPerPlatform = Data.front().Test.numRows();

  // Transfer sweep: every ordered (train, test) pair, three families,
  // unfiltered (counters common to both platforms) and additivity-filtered
  // (further intersected with both platforms' additive sets). The cell
  // grid is fixed up front so the parallel sweep writes disjoint slots
  // with per-cell deterministic seeds.
  const ModelFamily Families[] = {ModelFamily::LR, ModelFamily::RF,
                                  ModelFamily::NN};
  struct PairSets {
    size_t TrainIdx, TestIdx;
    std::vector<std::string> Unfiltered, Filtered;
    ml::Dataset TrainU, TestU, TrainF, TestF;
  };
  std::vector<PairSets> PairData;
  for (size_t X = 0; X < NumPlatforms; ++X)
    for (size_t Y = 0; Y < NumPlatforms; ++Y) {
      if (X == Y)
        continue;
      PairSets Sets;
      Sets.TrainIdx = X;
      Sets.TestIdx = Y;
      Sets.Unfiltered =
          intersectSets(Data[X].Info.Canonical, Data[Y].Info.Canonical);
      Sets.Filtered =
          intersectSets(intersectSets(Sets.Unfiltered,
                                      Data[X].Info.AdditiveCanonical),
                        Data[Y].Info.AdditiveCanonical);
      assert(!Sets.Unfiltered.empty() &&
             "zoo platforms must share canonical counters");
      PairData.push_back(std::move(Sets));
      TransferPairResult Pair;
      Pair.TrainPlatform = Data[X].Info.Key;
      Pair.TestPlatform = Data[Y].Info.Key;
      Pair.Cells.resize((PairData.back().Filtered.empty() ? 1 : 2) *
                        std::size(Families));
      Result.Pairs.push_back(std::move(Pair));
    }

  // Column selection is pure and per-pair; models do not store feature
  // names, so a model trained on platform X's canonical columns applies
  // to platform Y's as long as the column order matches — which the
  // dictionary-ordered canonical sets guarantee.
  parallelFor(0, PairData.size(), 1, [&](size_t I) {
    PairSets &Sets = PairData[I];
    Sets.TrainU = Data[Sets.TrainIdx].Train.selectFeatures(Sets.Unfiltered);
    Sets.TestU = Data[Sets.TestIdx].Test.selectFeatures(Sets.Unfiltered);
    if (!Sets.Filtered.empty()) {
      Sets.TrainF = Data[Sets.TrainIdx].Train.selectFeatures(Sets.Filtered);
      Sets.TestF = Data[Sets.TestIdx].Test.selectFeatures(Sets.Filtered);
    }
  });
  size_t CellsPerPair = 2 * std::size(Families);
  parallelFor(0, PairData.size() * CellsPerPair, 1, [&](size_t Task) {
    size_t I = Task / CellsPerPair;
    const PairSets &Sets = PairData[I];
    size_t FamilyIdx = (Task % CellsPerPair) / 2;
    bool Filtered = (Task % 2) == 1;
    if (Filtered && Sets.Filtered.empty())
      return;
    TransferCell Cell;
    Cell.Family = modelFamilyName(Families[FamilyIdx]);
    Cell.Filtered = Filtered;
    Cell.Pmcs = Filtered ? Sets.Filtered : Sets.Unfiltered;
    ModelEvalRow Row = evaluateSubset(
        Families[FamilyIdx], Cell.Family, Cell.Pmcs,
        Filtered ? Sets.TrainF : Sets.TrainU,
        Filtered ? Sets.TestF : Sets.TestU,
        Config.Seed + 1000 + I * CellsPerPair + FamilyIdx * 2 + Filtered,
        Config.NnEpochs, Config.RfTrees);
    Cell.Errors = Row.Errors;
    // Cells are laid out family-major with the filtered variant (when it
    // exists) immediately after its unfiltered sibling.
    size_t Slot = Sets.Filtered.empty() ? FamilyIdx : FamilyIdx * 2 + Filtered;
    Result.Pairs[I].Cells[Slot] = std::move(Cell);
  });

  // big.LITTLE on-board comparison: one pooled model on the summed board
  // dataset vs one model per cluster with attributions summed in cluster
  // order. Both predict the same board-level test energies.
  const ClassDPlatformData &Board = Data.back();
  assert(!Board.ClusterTrain.empty() && "expected a heterogeneous platform");
  Result.BigLittle.resize(2 * std::size(Families));
  parallelFor(0, Result.BigLittle.size(), 1, [&](size_t Task) {
    size_t FamilyIdx = Task / 2;
    std::string Base = modelFamilyName(Families[FamilyIdx]);
    uint64_t Seed = Config.Seed + 2000 + FamilyIdx * 8;
    if (Task % 2 == 0) {
      Result.BigLittle[Task] = evaluateSubset(
          Families[FamilyIdx], Base + "-pooled", Board.Info.Canonical,
          Board.Train, Board.Test, Seed, Config.NnEpochs, Config.RfTrees);
      return;
    }
    ModelEvalRow Row;
    Row.Label = Base + "-cluster";
    Row.Pmcs = Board.Info.Canonical;
    std::vector<double> Sum(Board.Test.numRows(), 0.0);
    for (size_t C = 0; C < Board.ClusterTrain.size(); ++C) {
      std::unique_ptr<ml::Model> M = makePaperModel(
          Families[FamilyIdx], Seed + 1 + C, Config.NnEpochs, Config.RfTrees);
      [[maybe_unused]] auto Fit = M->fit(Board.ClusterTrain[C]);
      assert(Fit && "cluster model failed to fit");
      std::vector<double> Pred = M->predictBatch(Board.ClusterTest[C]);
      for (size_t R = 0; R < Pred.size(); ++R)
        Sum[R] += Pred[R];
    }
    Row.Errors = stats::predictionErrorSummary(Sum, Board.Test.targets());
    Result.BigLittle[Task] = Row;
  });
  return Result;
}
