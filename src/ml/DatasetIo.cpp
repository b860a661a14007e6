//===- ml/DatasetIo.cpp - Dataset CSV import/export -----------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/DatasetIo.h"

#include "support/Csv.h"
#include "support/CsvReader.h"

#include <cmath>
#include <cstdlib>

using namespace slope;
using namespace slope::ml;

namespace {
CsvWriter makeWriter(const Dataset &Data) {
  std::vector<std::string> Header = Data.featureNames();
  Header.push_back(TargetColumnName);
  CsvWriter Writer(Header);
  for (size_t R = 0; R < Data.numRows(); ++R) {
    std::vector<double> Values = Data.row(R);
    Values.push_back(Data.target(R));
    Writer.addNumericRow(Values);
  }
  return Writer;
}
} // namespace

std::string ml::datasetToCsv(const Dataset &Data) {
  return makeWriter(Data).str();
}

Expected<bool> ml::writeDatasetCsv(const Dataset &Data,
                                   const std::string &Path) {
  return makeWriter(Data).writeFile(Path);
}

namespace {
/// The one document-to-dataset conversion behind both entry points. Every
/// cell must parse whole as a finite number: NaN, +/-Inf and values that
/// overflow to +/-Inf (1e999) are rejected, finite underflow loads.
Expected<Dataset> datasetFromDocument(const CsvDocument &Doc) {
  if (Doc.numColumns() < 2)
    return makeError("a dataset needs at least one feature column plus "
                     "the target column");

  std::vector<std::string> FeatureNames(Doc.Header.begin(),
                                        Doc.Header.end() - 1);
  Dataset Data(FeatureNames);
  std::vector<double> Values(Doc.numColumns());
  for (size_t R = 0; R < Doc.numRows(); ++R) {
    for (size_t C = 0; C < Doc.numColumns(); ++C) {
      const std::string &Cell = Doc.Rows[R][C];
      char *End = nullptr;
      Values[C] = std::strtod(Cell.c_str(), &End);
      const bool Numeric = End != Cell.c_str() && *End == '\0';
      if (!Numeric || !std::isfinite(Values[C]))
        return makeError(std::string(Numeric ? "non-finite" : "non-numeric") +
                         " cell '" + Cell + "' in row " +
                         std::to_string(R + 2) + ", column '" +
                         Doc.Header[C] + "'");
    }
    const double Target = Values.back();
    Data.addRow(Values.data(), Target);
  }
  return Data;
}
} // namespace

Expected<Dataset> ml::datasetFromCsv(const std::string &Text) {
  auto Doc = parseCsv(Text);
  if (!Doc)
    return Doc.error();
  return datasetFromDocument(*Doc);
}

Expected<Dataset> ml::readDatasetCsv(const std::string &Path) {
  auto Doc = readCsvFile(Path);
  if (!Doc)
    return Doc.error();
  return datasetFromDocument(*Doc);
}
