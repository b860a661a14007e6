//===- core/ModelZoo.h - Paper model configurations -------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factory for the three model families the paper evaluates, in their
/// paper configurations: LR — penalized linear regression with zero
/// intercept and non-negative coefficients; RF — a 100-tree regression
/// forest; NN — an MLP trained with a linear transfer function.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_CORE_MODELZOO_H
#define SLOPE_CORE_MODELZOO_H

#include "ml/KnnRegressor.h"
#include "ml/LinearRegression.h"
#include "ml/NeuralNetwork.h"
#include "ml/RandomForest.h"

#include <memory>

namespace slope {
namespace core {

/// The three families of Tables 3-5 and 7, plus the nearest-neighbour
/// literature baseline (Mair et al.) the extension benches compare
/// against — it shares the Model interface, so the estimator and the
/// serving engine can host it like any paper family.
enum class ModelFamily { LR, RF, NN, Knn };

/// \returns "LR", "RF", "NN", or "kNN".
const char *modelFamilyName(ModelFamily Family);

/// Creates a model of \p Family in its paper configuration. \p Seed
/// varies the stochastic families (RF bootstrap, NN initialization);
/// the LR solver is deterministic. \p NnEpochs and \p RfTrees are the
/// training budgets of the NN and RF families (the paper's 300 epochs
/// and 100 trees by default); the other families ignore them.
std::unique_ptr<ml::Model> makePaperModel(ModelFamily Family, uint64_t Seed,
                                          unsigned NnEpochs = 300,
                                          size_t RfTrees = 100);

/// Fits a fresh paper-configured model on \p Training; asserts success
/// (experiment datasets are well formed by construction).
std::unique_ptr<ml::Model> fitPaperModel(ModelFamily Family, uint64_t Seed,
                                         const ml::Dataset &Training);

} // namespace core
} // namespace slope

#endif // SLOPE_CORE_MODELZOO_H
