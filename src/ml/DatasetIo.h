//===- ml/DatasetIo.h - Dataset CSV import/export ----------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSV serialization of datasets so experiment data can be archived,
/// diffed, and post-processed outside the harness. The format is one
/// column per feature (named like the PMCs) plus a final
/// "dynamic_energy_j" target column.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_DATASETIO_H
#define SLOPE_ML_DATASETIO_H

#include "ml/Dataset.h"
#include "support/Expected.h"

#include <string>

namespace slope {
namespace ml {

/// The target column's name in serialized datasets.
inline constexpr const char *TargetColumnName = "dynamic_energy_j";

/// Serializes \p Data to CSV text (features..., dynamic_energy_j).
std::string datasetToCsv(const Dataset &Data);

/// Writes \p Data to \p Path. \returns an error on I/O failure.
Expected<bool> writeDatasetCsv(const Dataset &Data, const std::string &Path);

/// Parses a dataset from CSV text produced by datasetToCsv (the last
/// column is the target regardless of its name). \returns an error on
/// malformed CSV, fewer than two columns, or a non-numeric or non-finite
/// cell (NaN, +/-Inf, or a value such as 1e999 that overflows to Inf),
/// naming the cell's row (the file line) and column.
Expected<Dataset> datasetFromCsv(const std::string &Text);

/// Reads a dataset from \p Path, with datasetFromCsv's checks.
Expected<Dataset> readDatasetCsv(const std::string &Path);

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_DATASETIO_H
