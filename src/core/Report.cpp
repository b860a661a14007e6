//===- core/Report.cpp - Paper table rendering ----------------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include "pmc/PlatformEvents.h"
#include "support/Str.h"
#include "support/TablePrinter.h"

#include <algorithm>

using namespace slope;
using namespace slope::core;

std::string core::compactPmcList(const std::vector<std::string> &Subset,
                                 const std::vector<std::string> &Universe,
                                 char Prefix) {
  std::vector<std::string> Short;
  for (const std::string &Name : Subset) {
    auto It = std::find(Universe.begin(), Universe.end(), Name);
    if (It == Universe.end()) {
      Short.push_back(Name);
      continue;
    }
    Short.push_back(std::string(1, Prefix) +
                    std::to_string(It - Universe.begin() + 1));
  }
  return str::join(Short, ",");
}

std::string core::renderTable1(const sim::Platform &Haswell,
                               const sim::Platform &Skylake) {
  TablePrinter T({"Technical Specifications", "Intel Haswell Server",
                  "Intel Skylake Server"});
  T.setCaption("Table 1. Specification of the Intel Haswell and Intel "
               "Skylake multicore CPUs (simulated).");
  auto Row = [&](const std::string &Label, const std::string &H,
                 const std::string &S) { T.addRow({Label, H, S}); };
  Row("Processor", Haswell.Processor, Skylake.Processor);
  Row("OS", Haswell.Os, Skylake.Os);
  Row("Micro-architecture", sim::microarchName(Haswell.Arch),
      sim::microarchName(Skylake.Arch));
  Row("Thread(s) per core", std::to_string(Haswell.ThreadsPerCore),
      std::to_string(Skylake.ThreadsPerCore));
  Row("Cores per socket", std::to_string(Haswell.CoresPerSocket),
      std::to_string(Skylake.CoresPerSocket));
  Row("Socket(s)", std::to_string(Haswell.Sockets),
      std::to_string(Skylake.Sockets));
  Row("NUMA node(s)", std::to_string(Haswell.NumaNodes),
      std::to_string(Skylake.NumaNodes));
  Row("L1d/L1i cache", std::to_string(Haswell.L1DKB) + " KB/" +
                           std::to_string(Haswell.L1IKB) + " KB",
      std::to_string(Skylake.L1DKB) + " KB/" +
          std::to_string(Skylake.L1IKB) + " KB");
  Row("L2 cache", std::to_string(Haswell.L2KB) + " KB",
      std::to_string(Skylake.L2KB) + " KB");
  Row("L3 cache", std::to_string(Haswell.L3KB) + " KB",
      std::to_string(Skylake.L3KB) + " KB");
  Row("Main memory", std::to_string(Haswell.MainMemoryGB) + " GB DDR4",
      std::to_string(Skylake.MainMemoryGB) + " GB DDR4");
  Row("TDP", str::compact(Haswell.TdpWatts, 4) + " W",
      str::compact(Skylake.TdpWatts, 4) + " W");
  Row("Idle Power", str::compact(Haswell.IdlePowerWatts, 4) + " W",
      str::compact(Skylake.IdlePowerWatts, 4) + " W");
  return T.render();
}

std::string core::renderTable2(const ClassAResult &Result) {
  TablePrinter T({"Selected PMCs", "Additivity test error (%)"});
  T.setCaption("Table 2. Selected PMCs for modelling with their additivity "
               "test errors (%).");
  std::vector<std::string> Universe = pmc::haswellClassAPmcNames();
  for (size_t I = 0; I < Result.AdditivityTable.size(); ++I) {
    const AdditivityResult &R = Result.AdditivityTable[I];
    T.addRow({"X" + std::to_string(I + 1) + ": " + R.Name,
              str::fixed(R.MaxErrorPct, 0)});
  }
  return T.render();
}

std::string
core::renderModelFamilyTable(const std::string &Caption,
                             const std::vector<ModelEvalRow> &Rows,
                             bool WithCoefficients) {
  std::vector<std::string> Universe = pmc::haswellClassAPmcNames();
  std::vector<std::string> Headers = {"Model", "PMCs"};
  if (WithCoefficients)
    Headers.push_back("Coefficients");
  Headers.push_back("Prediction errors (min, avg, max)");
  TablePrinter T(Headers);
  T.setCaption(Caption);
  for (const ModelEvalRow &Row : Rows) {
    std::vector<std::string> Cells = {
        Row.Label, compactPmcList(Row.Pmcs, Universe, 'X')};
    if (WithCoefficients) {
      std::vector<std::string> Coeffs;
      for (double C : Row.Coefficients)
        Coeffs.push_back(str::scientific(C));
      Cells.push_back(str::join(Coeffs, ", "));
    }
    Cells.push_back(Row.Errors.str());
    T.addRow(Cells);
  }
  return T.render();
}

std::string core::renderClassDPlatforms(const ClassDResult &Result) {
  TablePrinter T({"Platform", "Canonical counters", "Additive subset"});
  T.setCaption("Class D platform zoo: canonical cross-architecture "
               "counters per platform and the empirically additive "
               "subset.");
  for (const ClassDPlatformInfo &P : Result.Platforms)
    T.addRow({P.Name, str::join(P.Canonical, ","),
              P.AdditiveCanonical.empty()
                  ? std::string("(none)")
                  : str::join(P.AdditiveCanonical, ",")});
  return T.render();
}

std::string core::renderClassDTransfer(const ClassDResult &Result) {
  TablePrinter T({"Train -> Test", "Model", "Counter set", "PMCs",
                  "Prediction errors [Min, Avg, Max]"});
  T.setCaption("Class D cross-architecture transfer: models trained on one "
               "platform, evaluated on another, with the full common "
               "counter set vs the additivity-filtered intersection.");
  for (const TransferPairResult &Pair : Result.Pairs)
    for (const TransferCell &Cell : Pair.Cells)
      T.addRow({Pair.TrainPlatform + " -> " + Pair.TestPlatform, Cell.Family,
                Cell.Filtered ? "additive" : "common",
                std::to_string(Cell.Pmcs.size()), Cell.Errors.str()});
  return T.render();
}

std::string core::renderClassDBigLittle(const ClassDResult &Result) {
  TablePrinter T({"Model", "PMCs", "Prediction errors [Min, Avg, Max]"});
  T.setCaption("Class D big.LITTLE: pooled board-level models vs one model "
               "per cluster (predictions summed in cluster order).");
  for (const ModelEvalRow &Row : Result.BigLittle)
    T.addRow({Row.Label, std::to_string(Row.Pmcs.size()), Row.Errors.str()});
  return T.render();
}
