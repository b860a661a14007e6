//===- bench/bench_micro_substrates.cpp - google-benchmark microbenches ---------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Throughput microbenchmarks of the substrate components, so regressions
// in the numeric kernels (NNLS, QR, CART, MLP, scheduler, synthesis) are
// visible. Not a paper table; complements the table-reproduction
// binaries.
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
#include "stats/Solve.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

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

// Single-tree fit at Class-A scale (277 rows, 6 PMCs), presorted vs the
// naive seed kernel; both grow bit-identical trees.
void BM_TreeFit(benchmark::State &State) {
  ml::Dataset D = randomDataset(277, 6, 11);
  ml::DecisionTreeOptions Options;
  Options.Algorithm = State.range(0) == 0 ? ml::TreeAlgorithm::Presorted
                                          : ml::TreeAlgorithm::Naive;
  for (auto _ : State) {
    ml::DecisionTree Tree(Options);
    auto Fit = Tree.fit(D);
    benchmark::DoNotOptimize(Fit);
  }
}
BENCHMARK(BM_TreeFit)->Arg(0)->Arg(1);

// Full paper-scale forest fit (100 trees on the Class-A dataset shape);
// the CI speedup gate reads these two timings from the benchmark JSON.
void BM_ForestFitClassA(benchmark::State &State) {
  ml::Dataset D = randomDataset(277, 6, 12);
  ml::RandomForestOptions Options;
  Options.NumTrees = 100;
  Options.Tree.Algorithm = State.range(0) == 0 ? ml::TreeAlgorithm::Presorted
                                               : ml::TreeAlgorithm::Naive;
  for (auto _ : State) {
    ml::RandomForest Forest(Options);
    auto Fit = Forest.fit(D);
    benchmark::DoNotOptimize(Fit);
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
// layer as the table sweep trains it), batched GEMM kernel vs the naive
// per-sample seed kernel; both learn bit-identical networks. The CI
// speedup gate reads these two timings from the benchmark JSON.
void BM_NNFit(benchmark::State &State) {
  ml::Dataset D = randomDataset(277, 6, 18);
  ml::NeuralNetworkOptions Options;
  Options.HiddenLayers = {16};
  Options.Epochs = 50;
  Options.Algorithm = State.range(0) == 0 ? ml::NnAlgorithm::Batched
                                          : ml::NnAlgorithm::Naive;
  for (auto _ : State) {
    ml::NeuralNetwork Net(Options);
    auto Fit = Net.fit(D);
    benchmark::DoNotOptimize(Fit);
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

void BM_CounterSynthesisAllEvents(benchmark::State &State) {
  sim::Machine M(sim::Platform::intelSkylakeServer(), 8);
  sim::Execution E = M.run(sim::Application(sim::KernelKind::MklFft, 24000));
  std::vector<pmc::EventId> All = M.registry().allEvents();
  for (auto _ : State) {
    std::vector<double> Counts = M.readCounters(All, E);
    benchmark::DoNotOptimize(Counts);
  }
}
BENCHMARK(BM_CounterSynthesisAllEvents);

// Whole-registry synthesis through the batch entry point, batched plan
// kernel vs the per-event naive reference dispatch; both produce
// bit-identical counts. The CI speedup gate reads these two timings.
void BM_ReadCountersBatch(benchmark::State &State) {
  sim::SynthAlgorithm Saved = sim::defaultSynthAlgorithm();
  sim::setDefaultSynthAlgorithm(State.range(0) == 0
                                    ? sim::SynthAlgorithm::Batched
                                    : sim::SynthAlgorithm::Naive);
  sim::Machine M(sim::Platform::intelSkylakeServer(), 8);
  sim::Execution E = M.run(sim::Application(sim::KernelKind::MklFft, 24000));
  std::vector<pmc::EventId> All = M.registry().allEvents();
  std::vector<double> Counts(All.size());
  for (auto _ : State) {
    M.readCountersBatch(All.data(), All.size(), E, Counts.data());
    benchmark::DoNotOptimize(Counts);
  }
  sim::setDefaultSynthAlgorithm(Saved);
}
BENCHMARK(BM_ReadCountersBatch)->Arg(0)->Arg(1);

// A small profiling campaign end to end (plan, batch-run, meter, reduce,
// rows): the fused parallel path vs the same campaign with the naive
// synthesis kernel.
void BM_DatasetBuild(benchmark::State &State) {
  sim::SynthAlgorithm Saved = sim::defaultSynthAlgorithm();
  sim::setDefaultSynthAlgorithm(State.range(0) == 0
                                    ? sim::SynthAlgorithm::Batched
                                    : sim::SynthAlgorithm::Naive);
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
  sim::setDefaultSynthAlgorithm(Saved);
}
BENCHMARK(BM_DatasetBuild)->Arg(0)->Arg(1);

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
