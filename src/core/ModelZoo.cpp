//===- core/ModelZoo.cpp - Paper model configurations --------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ModelZoo.h"

#include <cassert>

using namespace slope;
using namespace slope::core;
using namespace slope::ml;

const char *core::modelFamilyName(ModelFamily Family) {
  switch (Family) {
  case ModelFamily::LR:
    return "LR";
  case ModelFamily::RF:
    return "RF";
  case ModelFamily::NN:
    return "NN";
  case ModelFamily::Knn:
    return "kNN";
  }
  assert(false && "unknown model family");
  return "?";
}

std::unique_ptr<Model> core::makePaperModel(ModelFamily Family,
                                            uint64_t Seed, unsigned NnEpochs,
                                            size_t RfTrees) {
  switch (Family) {
  case ModelFamily::LR:
    return std::make_unique<LinearRegression>(
        LinearRegressionOptions::paperDefault());
  case ModelFamily::RF: {
    RandomForestOptions Options;
    Options.NumTrees = RfTrees;
    Options.Seed = Seed;
    return std::make_unique<RandomForest>(Options);
  }
  case ModelFamily::NN: {
    NeuralNetworkOptions Options;
    Options.HiddenLayers = {16};
    Options.Transfer = Activation::Identity; // The paper's linear transfer.
    Options.Epochs = NnEpochs;
    Options.Seed = Seed;
    return std::make_unique<NeuralNetwork>(Options);
  }
  case ModelFamily::Knn:
    // Deterministic (no stochastic fitting, no trees or epochs): Seed and
    // the budgets are intentionally unused.
    return std::make_unique<KnnRegressor>(KnnOptions());
  }
  assert(false && "unknown model family");
  return nullptr;
}

std::unique_ptr<Model> core::fitPaperModel(ModelFamily Family, uint64_t Seed,
                                           const Dataset &Training) {
  std::unique_ptr<Model> M = makePaperModel(Family, Seed);
  [[maybe_unused]] auto Fit = M->fit(Training);
  assert(Fit && "paper model failed to fit an experiment dataset");
  return M;
}
