//===- ml/Model.h - Regression model interface ------------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface of the three model families the paper evaluates
/// (linear regression, random forests, neural networks) and of the
/// nearest-neighbour baseline. Experiments treat models uniformly: fit on
/// a training Dataset, predict on test rows.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_MODEL_H
#define SLOPE_ML_MODEL_H

#include "ml/Dataset.h"
#include "support/Expected.h"

#include <string>
#include <vector>

namespace slope {
namespace ml {

/// Abstract regression model.
class Model {
public:
  virtual ~Model();

  /// Fits the model to \p Training. \returns an error for degenerate
  /// inputs (empty data, rank-deficient designs, ...).
  virtual Expected<bool> fit(const Dataset &Training) = 0;

  /// Predicts the target for one feature row. Must be called after a
  /// successful fit; asserts otherwise.
  virtual double predict(const std::vector<double> &Features) const = 0;

  /// \returns a short human-readable family name ("LR", "RF", "NN").
  virtual std::string name() const = 0;

  /// Predicts every row of \p Data in one pass. The base implementation
  /// gathers each row into a reused buffer and calls predict(); model
  /// families override it with columnar kernels that skip the per-row
  /// vector copy and virtual dispatch. Overrides must produce results
  /// bit-identical to the row-by-row path.
  virtual std::vector<double> predictBatch(const Dataset &Data) const;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_MODEL_H
