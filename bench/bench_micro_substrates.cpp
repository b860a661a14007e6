//===- bench/bench_micro_substrates.cpp - google-benchmark microbenches ---------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Throughput microbenchmarks of the substrate components, so regressions
// in the numeric kernels (NNLS, QR, CART, MLP, scheduler, synthesis) are
// visible. Not a paper table; complements the table-reproduction
// binaries. The Arg(1) arms of BM_TreeFit, BM_ForestFitClassA, BM_NNFit
// and BM_ReadCountersBatch run the oracles of tests/reference, which the
// production kernels must match bit for bit (BM_ForestPredictBatchPa4
// pairs the leaf-mask form with the node walk the same way); CI's kernel
// speedup gates compare the tree, forest, NN and leaf-mask pairs. Under
// SLOPE_SIMD=avx2 the BM_NNFit Arg(1) arm reports an error instead, since
// the K-split kernels reassociate the batched trainer's sums.
//
//===----------------------------------------------------------------------===//

#include "core/AdditivityChecker.h"
#include "core/DatasetBuilder.h"
#include "ml/LinearRegression.h"
#include "ml/NeuralNetwork.h"
#include "ml/QuantizedModel.h"
#include "ml/RandomForest.h"
#include "pmc/CounterScheduler.h"
#include "pmc/PlatformEvents.h"
#include "sim/Machine.h"
#include "sim/TestSuite.h"
#include "stats/Nnls.h"
#include "stats/SimdKernels.h"
#include "stats/Solve.h"
#include "support/Rng.h"

#include "reference/ReferenceNn.h"
#include "reference/ReferenceSynth.h"
#include "reference/ReferenceTree.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace slope;

namespace {

stats::Matrix randomMatrix(size_t Rows, size_t Cols, uint64_t Seed) {
  Rng R(Seed);
  stats::Matrix M(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      M.at(I, J) = R.uniform(0, 2);
  return M;
}

std::vector<double> randomVector(size_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = R.uniform(0, 5);
  return V;
}

/// Stops the run with status 1 when an Arg(1) arm's production kernel and
/// its tests/reference oracle disagree: a speedup ratio between kernels
/// that no longer compute the same thing must not pass a gate.
void requireIdentical(bool Same, const char *Arm, const std::string &Where) {
  if (Same)
    return;
  std::fprintf(stderr, "error: %s: production and reference differ: %s\n",
               Arm, Where.c_str());
  std::exit(1);
}

/// \returns whether \p A and \p B hold the same doubles bit for bit
/// (any NaN equal to any NaN), naming the first difference in \p Where.
bool sameValues(const std::vector<double> &A, const std::vector<double> &B,
                std::string &Where) {
  if (A.size() != B.size()) {
    Where = "sizes " + std::to_string(A.size()) + " vs " +
            std::to_string(B.size());
    return false;
  }
  for (size_t I = 0; I < A.size(); ++I)
    if (!reference::sameValue(A[I], B[I])) {
      Where = "entry " + std::to_string(I) + ": " + std::to_string(A[I]) +
              " vs " + std::to_string(B[I]);
      return false;
    }
  return true;
}

ml::Dataset randomDataset(size_t Rows, size_t Cols, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t J = 0; J < Cols; ++J)
    Names.push_back("f" + std::to_string(J));
  ml::Dataset D(Names);
  for (size_t I = 0; I < Rows; ++I) {
    std::vector<double> X(Cols);
    double Y = 0;
    for (size_t J = 0; J < Cols; ++J) {
      X[J] = R.uniform(0, 10);
      Y += (J + 1) * X[J];
    }
    D.addRow(X, Y + R.gaussian(0, 1));
  }
  return D;
}

void BM_NnlsSolve(benchmark::State &State) {
  size_t Rows = State.range(0);
  stats::Matrix A = randomMatrix(Rows, 8, 1);
  std::vector<double> B = randomVector(Rows, 2);
  for (auto _ : State) {
    auto Solution = stats::solveNnls(A, B);
    benchmark::DoNotOptimize(Solution);
  }
}
BENCHMARK(BM_NnlsSolve)->Arg(64)->Arg(256)->Arg(1024);

void BM_QrLeastSquares(benchmark::State &State) {
  size_t Rows = State.range(0);
  stats::Matrix A = randomMatrix(Rows, 8, 3);
  std::vector<double> B = randomVector(Rows, 4);
  for (auto _ : State) {
    auto Solution = stats::solveLeastSquaresQR(A, B);
    benchmark::DoNotOptimize(Solution);
  }
}
BENCHMARK(BM_QrLeastSquares)->Arg(64)->Arg(256)->Arg(1024);

void BM_RandomForestFit(benchmark::State &State) {
  ml::Dataset D = randomDataset(State.range(0), 6, 5);
  ml::RandomForestOptions Options;
  Options.NumTrees = 30;
  for (auto _ : State) {
    ml::RandomForest Forest(Options);
    auto Fit = Forest.fit(D);
    benchmark::DoNotOptimize(Fit);
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(128)->Arg(512);

// Single-tree fit at Class-A scale (277 rows, 6 PMCs): the presorted
// grower, Arg(0), which builds its DatasetPresort inside the timed loop,
// vs the seed grower of tests/reference, Arg(1); both grow bit-identical
// trees, which the Arg(1) arm checks once before timing.
void BM_TreeFit(benchmark::State &State) {
  ml::Dataset D = randomDataset(277, 6, 11);
  ml::DecisionTreeOptions Options;
  const Rng TreeRng(0x7EE5);
  std::vector<size_t> Rows(D.numRows());
  std::iota(Rows.begin(), Rows.end(), size_t{0});
  if (State.range(0) == 0) {
    for (auto _ : State) {
      ml::FlatTree Tree =
          ml::growTree(D, Rows, ml::DatasetPresort(D), Options, TreeRng);
      benchmark::DoNotOptimize(Tree);
    }
    return;
  }
  static const bool Checked = [&] {
    ml::FlatForest Production, Reference;
    Production.Trees.push_back(
        ml::growTree(D, Rows, ml::DatasetPresort(D), Options, TreeRng));
    Reference.Trees.push_back(reference::growTree(D, Rows, Options, TreeRng));
    std::string Where;
    bool Same = reference::sameForest(Production, Reference, Where);
    requireIdentical(Same, "BM_TreeFit", Where);
    return true;
  }();
  (void)Checked;
  for (auto _ : State) {
    ml::FlatTree Tree = reference::growTree(D, Rows, Options, TreeRng);
    benchmark::DoNotOptimize(Tree);
  }
}
BENCHMARK(BM_TreeFit)->Arg(0)->Arg(1);

// Full paper-scale forest fit (100 trees on the Class-A dataset shape):
// RandomForest::fit, Arg(0), vs the same forest grown by the seed grower
// of tests/reference, Arg(1); the Arg(1) arm first checks that both give
// the same trees, out-of-bag error and predictions. CI's forest-fit gate
// reads the pair at one thread.
void BM_ForestFitClassA(benchmark::State &State) {
  ml::Dataset D = randomDataset(277, 6, 12);
  ml::RandomForestOptions Options;
  Options.NumTrees = 100;
  if (State.range(0) == 0) {
    for (auto _ : State) {
      ml::RandomForest Forest(Options);
      auto Fit = Forest.fit(D);
      benchmark::DoNotOptimize(Fit);
    }
    return;
  }
  static const bool Checked = [&] {
    ml::RandomForest Forest(Options);
    requireIdentical(bool(Forest.fit(D)), "BM_ForestFitClassA",
                     "the fit failed");
    reference::Forest Reference = reference::growForest(D, Options);
    std::string Where;
    bool Same = reference::sameForest(Forest.flat(), Reference.Flat, Where);
    requireIdentical(Same, "BM_ForestFitClassA", Where);
    requireIdentical(reference::sameValue(Forest.oobMse(), Reference.OobMse),
                     "BM_ForestFitClassA", "out-of-bag error");
    Same = sameValues(Forest.predictBatch(D),
                      reference::predictForest(Reference.Flat, D), Where);
    requireIdentical(Same, "BM_ForestFitClassA", "prediction " + Where);
    return true;
  }();
  (void)Checked;
  for (auto _ : State) {
    reference::Forest Forest = reference::growForest(D, Options);
    benchmark::DoNotOptimize(Forest);
  }
}
BENCHMARK(BM_ForestFitClassA)->Arg(0)->Arg(1);

// Batch inference (the flat tree-major walk, four rows in flight) vs
// row-by-row predict() calls, which walk the same arrays one row at a
// time (both produce bit-identical predictions).
void BM_ForestPredictBatch(benchmark::State &State) {
  ml::Dataset Train = randomDataset(277, 6, 13);
  ml::Dataset Test = randomDataset(512, 6, 14);
  ml::RandomForestOptions Options;
  Options.NumTrees = 30;
  ml::RandomForest Forest(Options);
  auto Fit = Forest.fit(Train);
  assert(Fit);
  (void)Fit;
  if (State.range(0) == 0) {
    for (auto _ : State) {
      std::vector<double> Preds = Forest.predictBatch(Test);
      benchmark::DoNotOptimize(Preds);
    }
  } else {
    for (auto _ : State) {
      std::vector<double> Preds;
      Preds.reserve(Test.numRows());
      for (size_t R = 0; R < Test.numRows(); ++R)
        Preds.push_back(Forest.predict(Test.row(R)));
      benchmark::DoNotOptimize(Preds);
    }
  }
}
BENCHMARK(BM_ForestPredictBatch)->Arg(0)->Arg(1);

// A forest of the paper's one-run PMC width (4 features, 100 trees on
// 200 training rows, fleet-rf's shape), which serves through its leaf
// masks: predictBatch, Arg(0), vs the node walk over the same forest's
// flat trees, Arg(1), rows transposed as predictBatch would for it. The
// Arg(0) arm first serves one untimed batch, which builds the masks, then
// checks that the forest took the mask form and that both give the same
// bits. Both arms count one item per (row, tree), so their rates read as
// ns per row and tree. BM_ForestPredictBatch's 6-feature forest keeps the
// node walk.
void BM_ForestPredictBatchPa4(benchmark::State &State) {
  ml::Dataset Train = randomDataset(200, 4, 15);
  ml::Dataset Test = randomDataset(4096, 4, 16);
  ml::RandomForestOptions Options;
  Options.NumTrees = 100;
  ml::RandomForest Forest(Options);
  requireIdentical(bool(Forest.fit(Train)), "BM_ForestPredictBatchPa4",
                   "the fit failed");
  const size_t N = Test.numRows(), W = Test.numFeatures();
  auto NodeWalk = [&] {
    std::vector<double> Rows(N * W), Out(N);
    for (size_t F = 0; F < W; ++F)
      for (size_t R = 0; R < N; ++R)
        Rows[R * W + F] = Test.column(F)[R];
    ml::sumForestLeaves(
        Forest.flat(), N, [&](size_t R) { return Rows.data() + R * W; },
        Out.data());
    for (double &P : Out)
      P /= static_cast<double>(Forest.numTrees());
    return Out;
  };
  // Items are (row, tree) pairs, so the JSON reports ns per row and tree.
  const auto CountItems = [&] {
    State.SetItemsProcessed(State.iterations() *
                            static_cast<int64_t>(N * Forest.numTrees()));
  };
  if (State.range(0) == 1) {
    for (auto _ : State) {
      std::vector<double> Preds = NodeWalk();
      benchmark::DoNotOptimize(Preds);
    }
    CountItems();
    return;
  }
  // The first batch takes the forest past LeafMasks::BuildAfterRows rows,
  // so it builds the masks the timed batches serve through.
  benchmark::DoNotOptimize(Forest.predictBatch(Test));
  static const bool Checked = [&] {
    requireIdentical(Forest.leafMasks() != nullptr,
                     "BM_ForestPredictBatchPa4", "no leaf-mask form");
    std::string Where;
    const bool Same = sameValues(Forest.predictBatch(Test), NodeWalk(), Where);
    requireIdentical(Same, "BM_ForestPredictBatchPa4", "prediction " + Where);
    return true;
  }();
  (void)Checked;
  for (auto _ : State) {
    std::vector<double> Preds = Forest.predictBatch(Test);
    benchmark::DoNotOptimize(Preds);
  }
  CountItems();
}
BENCHMARK(BM_ForestPredictBatchPa4)->Arg(0)->Arg(1);

// Quantized fixed-point batch inference vs the FP reference it was built
// from (predictions agree within ml/QuantizedModel's documented 1e-4
// relative-error bound): the int64 LR dot-product kernel, Arg(1), vs FP
// LR, Arg(0).
void BM_QuantizedPredictBatch(benchmark::State &State) {
  ml::Dataset Train = randomDataset(277, 6, 21);
  ml::Dataset Test = randomDataset(4096, 6, 22);
  std::unique_ptr<ml::Model> Under = std::make_unique<ml::LinearRegression>(
      ml::LinearRegressionOptions::paperDefault());
  auto Fit = Under->fit(Train);
  assert(Fit);
  (void)Fit;
  if (State.range(0) == 1) {
    auto Q = ml::QuantizedModel::build(std::move(Under), Train);
    assert(Q);
    Under = Q.takeValue();
  }
  for (auto _ : State) {
    std::vector<double> Preds = Under->predictBatch(Test);
    benchmark::DoNotOptimize(Preds);
  }
}
BENCHMARK(BM_QuantizedPredictBatch)->Arg(0)->Arg(1);

void BM_MatrixGram(benchmark::State &State) {
  stats::Matrix A = randomMatrix(State.range(0), 32, 15);
  for (auto _ : State) {
    stats::Matrix G = A.gram();
    benchmark::DoNotOptimize(G);
  }
}
BENCHMARK(BM_MatrixGram)->Arg(256)->Arg(1024);

void BM_MatrixMultiply(benchmark::State &State) {
  size_t N = State.range(0);
  stats::Matrix A = randomMatrix(N, N, 16);
  stats::Matrix B = randomMatrix(N, N, 17);
  for (auto _ : State) {
    stats::Matrix C = A.multiply(B);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_MatrixMultiply)->Arg(128)->Arg(256);

void BM_NeuralNetworkFit(benchmark::State &State) {
  ml::Dataset D = randomDataset(256, 6, 6);
  ml::NeuralNetworkOptions Options;
  Options.Epochs = State.range(0);
  for (auto _ : State) {
    ml::NeuralNetwork Net(Options);
    auto Fit = Net.fit(D);
    benchmark::DoNotOptimize(Fit);
  }
}
BENCHMARK(BM_NeuralNetworkFit)->Arg(10)->Arg(50);

// Class-A-scale network training (277 rows, 6 PMCs, one 16-unit hidden
// layer as the table sweep trains it): the batched GEMM trainer, Arg(0),
// vs the seed per-sample trainer of tests/reference, Arg(1); both learn
// bit-identical networks, which the Arg(1) arm checks once (final loss and
// predictions) before timing. CI's speedup gate reads the pair.
void BM_NNFit(benchmark::State &State) {
  ml::Dataset D = randomDataset(277, 6, 18);
  ml::NeuralNetworkOptions Options;
  Options.HiddenLayers = {16};
  Options.Epochs = 50;
  if (State.range(0) == 0) {
    for (auto _ : State) {
      ml::NeuralNetwork Net(Options);
      auto Fit = Net.fit(D);
      benchmark::DoNotOptimize(Fit);
    }
    return;
  }
  // The opt-in K-split SIMD kernels (SLOPE_SIMD=avx2) reassociate the
  // batched trainer's sums, so it no longer matches the seed trainer bit
  // for bit and the pair would time different arithmetic.
  if (stats::simdKSplitKernelsActive()) {
    State.SkipWithError("the K-split SIMD kernels are active; the seed "
                        "trainer matches only the default dispatch");
    return;
  }
  static const bool Checked = [&] {
    ml::NeuralNetwork Net(Options);
    requireIdentical(bool(Net.fit(D)), "BM_NNFit", "the fit failed");
    reference::NeuralNetwork Reference(D, Options);
    requireIdentical(reference::sameValue(Net.finalTrainingLoss(),
                                          Reference.finalTrainingLoss()),
                     "BM_NNFit", "final training loss");
    std::string Where;
    bool Same = sameValues(Net.predictBatch(D), Reference.predict(D), Where);
    requireIdentical(Same, "BM_NNFit", "prediction " + Where);
    return true;
  }();
  (void)Checked;
  for (auto _ : State) {
    reference::NeuralNetwork Net(D, Options);
    benchmark::DoNotOptimize(Net);
  }
}
BENCHMARK(BM_NNFit)->Arg(0)->Arg(1);

// Whole-set GEMM inference vs the row-by-row forward loop it replaced
// (both produce bit-identical predictions).
void BM_NNForwardBatch(benchmark::State &State) {
  ml::Dataset Train = randomDataset(277, 6, 19);
  ml::Dataset Test = randomDataset(512, 6, 20);
  ml::NeuralNetworkOptions Options;
  Options.HiddenLayers = {16};
  Options.Epochs = 20;
  ml::NeuralNetwork Net(Options);
  auto Fit = Net.fit(Train);
  assert(Fit);
  (void)Fit;
  if (State.range(0) == 0) {
    for (auto _ : State) {
      std::vector<double> Preds = Net.predictBatch(Test);
      benchmark::DoNotOptimize(Preds);
    }
  } else {
    for (auto _ : State) {
      std::vector<double> Preds;
      Preds.reserve(Test.numRows());
      for (size_t R = 0; R < Test.numRows(); ++R)
        Preds.push_back(Net.predict(Test.row(R)));
      benchmark::DoNotOptimize(Preds);
    }
  }
}
BENCHMARK(BM_NNForwardBatch)->Arg(0)->Arg(1);

void BM_SchedulerFullRegistry(benchmark::State &State) {
  pmc::EventRegistry R = State.range(0) == 0 ? pmc::buildHaswellRegistry()
                                             : pmc::buildSkylakeRegistry();
  std::vector<pmc::EventId> Significant;
  for (pmc::EventId Id : R.allEvents())
    if (!R.event(Id).Model.Coeffs.empty())
      Significant.push_back(Id);
  for (auto _ : State) {
    auto Plan = pmc::planCollection(R, Significant);
    benchmark::DoNotOptimize(Plan);
  }
}
BENCHMARK(BM_SchedulerFullRegistry)->Arg(0)->Arg(1);

void BM_MachineRun(benchmark::State &State) {
  sim::Machine M(sim::Platform::intelHaswellServer(), 7);
  sim::Application App(sim::KernelKind::MklDgemm, 12000);
  for (auto _ : State) {
    sim::Execution E = M.run(App);
    benchmark::DoNotOptimize(E);
  }
}
BENCHMARK(BM_MachineRun);

// Whole-registry synthesis: Machine::readCounters, Arg(0), vs the
// per-event oracle of tests/reference, Arg(1), which builds the seed
// generator once per event; both produce bit-identical counts, which the
// Arg(1) arm checks once before timing.
void BM_ReadCountersBatch(benchmark::State &State) {
  sim::Machine M(sim::Platform::intelSkylakeServer(), 8);
  sim::Execution E = M.run(sim::Application(sim::KernelKind::MklFft, 24000));
  std::vector<pmc::EventId> All = M.registry().allEvents();
  std::vector<double> Counts(All.size());
  if (State.range(0) == 0) {
    for (auto _ : State) {
      M.readCounters(All.data(), All.size(), E, Counts.data());
      benchmark::DoNotOptimize(Counts.data());
      benchmark::ClobberMemory();
    }
    return;
  }
  static const bool Checked = [&] {
    // The timed run has one phase; a three-phase compound checks the
    // phase order too.
    sim::CompoundApplication Compound;
    Compound.Phases = {sim::Application(sim::KernelKind::MklFft, 24000),
                       sim::Application(sim::KernelKind::MklDgemm, 9000),
                       sim::Application(sim::KernelKind::Stream, 4e8)};
    const sim::Execution Runs[] = {E, M.run(Compound)};
    for (const sim::Execution &Run : Runs) {
      std::vector<double> Reference;
      for (pmc::EventId Id : All)
        Reference.push_back(reference::readCounter(M, Id, Run));
      std::string Where;
      bool Same = sameValues(M.readCounters(All, Run), Reference, Where);
      requireIdentical(Same, "BM_ReadCountersBatch", Where);
    }
    return true;
  }();
  (void)Checked;
  for (auto _ : State) {
    for (size_t I = 0; I < All.size(); ++I)
      Counts[I] = reference::readCounter(M, All[I], E);
    benchmark::DoNotOptimize(Counts.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ReadCountersBatch)->Arg(0)->Arg(1);

// A small profiling campaign end to end (plan, batch-run, meter, reduce,
// rows).
void BM_DatasetBuild(benchmark::State &State) {
  std::vector<sim::CompoundApplication> Apps;
  for (int I = 0; I < 8; ++I)
    Apps.push_back(sim::CompoundApplication(
        sim::Application(sim::KernelKind::MklDgemm, 8000 + 500 * I)));
  for (auto _ : State) {
    sim::Machine M(sim::Platform::intelHaswellServer(), 10);
    power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
    core::DatasetBuilder Builder(M, Meter);
    auto Data = Builder.buildByName(Apps, pmc::haswellClassAPmcNames());
    benchmark::DoNotOptimize(Data);
  }
}
BENCHMARK(BM_DatasetBuild);

void BM_AdditivityCheckSixPmcs(benchmark::State &State) {
  for (auto _ : State) {
    sim::Machine M(sim::Platform::intelHaswellServer(), 9);
    core::AdditivityChecker Checker(M);
    Rng R(9);
    std::vector<sim::Application> Bases =
        sim::diverseBaseSuite(M.platform(), 12, R.fork("b"));
    std::vector<sim::CompoundApplication> Compounds =
        sim::makeCompoundSuite(Bases, 6, R.fork("p"));
    std::vector<pmc::EventId> Six;
    for (const std::string &Name : pmc::haswellClassAPmcNames())
      Six.push_back(*M.registry().lookup(Name));
    auto Results = Checker.checkAll(Six, Compounds);
    benchmark::DoNotOptimize(Results);
  }
}
BENCHMARK(BM_AdditivityCheckSixPmcs);

} // namespace

BENCHMARK_MAIN();
