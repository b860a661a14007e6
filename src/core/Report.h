//===- core/Report.h - Paper table rendering --------------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders experiment results in the layout of the paper's tables so the
/// bench binaries print directly comparable output.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_CORE_REPORT_H
#define SLOPE_CORE_REPORT_H

#include "core/Experiments.h"
#include "sim/Platform.h"

#include <string>

namespace slope {
namespace core {

/// Table 1: specifications of the two platforms.
std::string renderTable1(const sim::Platform &Haswell,
                         const sim::Platform &Skylake);

/// Table 2: the six Class-A PMCs with their additivity test errors.
std::string renderTable2(const ClassAResult &Result);

/// Tables 3-5: one model family's nested subsets with error triples.
/// LR rows include the non-negative coefficients (Table 3 layout).
std::string renderModelFamilyTable(const std::string &Caption,
                                   const std::vector<ModelEvalRow> &Rows,
                                   bool WithCoefficients);

/// Class D platform summary: every zoo platform with its canonical
/// counter set and the empirically additive subset.
std::string renderClassDPlatforms(const ClassDResult &Result);

/// Class D transfer matrix: per ordered platform pair and model family,
/// prediction errors with the full common counter set and with the
/// additivity-filtered intersection.
std::string renderClassDTransfer(const ClassDResult &Result);

/// Class D big.LITTLE comparison: pooled board-level models vs one model
/// per cluster with attributions summed in cluster order.
std::string renderClassDBigLittle(const ClassDResult &Result);

/// Short per-PMC names ("X1".."Xn"/"Y1".."Yn") used in compact rendering.
std::string compactPmcList(const std::vector<std::string> &Subset,
                           const std::vector<std::string> &Universe,
                           char Prefix);

} // namespace core
} // namespace slope

#endif // SLOPE_CORE_REPORT_H
