//===- tests/ml/DatasetIoTest.cpp - Dataset CSV I/O tests -----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/DatasetIo.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

using namespace slope;
using namespace slope::ml;

namespace {
Dataset makeToy() {
  Dataset D({"IDQ_MS_UOPS", "L2_RQSTS_MISS"});
  D.addRow({1.5e9, 2.25e8}, 341.5);
  D.addRow({3.25e9, 4.5e8}, 702.125);
  return D;
}
} // namespace

TEST(DatasetIo, CsvHasFeatureAndTargetColumns) {
  std::string Text = datasetToCsv(makeToy());
  EXPECT_EQ(Text.rfind("IDQ_MS_UOPS,L2_RQSTS_MISS,dynamic_energy_j\n", 0),
            0u);
}

TEST(DatasetIo, TextRoundTripIsExact) {
  Dataset Original = makeToy();
  auto Parsed = datasetFromCsv(datasetToCsv(Original));
  ASSERT_TRUE(bool(Parsed));
  ASSERT_EQ(Parsed->numRows(), Original.numRows());
  ASSERT_EQ(Parsed->featureNames(), Original.featureNames());
  for (size_t R = 0; R < Original.numRows(); ++R) {
    EXPECT_EQ(Parsed->row(R), Original.row(R));
    EXPECT_DOUBLE_EQ(Parsed->target(R), Original.target(R));
  }
}

TEST(DatasetIo, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "slope_dataset_io.csv";
  ASSERT_TRUE(bool(writeDatasetCsv(makeToy(), Path)));
  auto Parsed = readDatasetCsv(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(bool(Parsed));
  EXPECT_EQ(Parsed->numRows(), 2u);
  EXPECT_DOUBLE_EQ(Parsed->target(1), 702.125);
}

TEST(DatasetIo, EmptyDatasetSerializesHeaderOnly) {
  Dataset D({"a"});
  auto Parsed = datasetFromCsv(datasetToCsv(D));
  ASSERT_TRUE(bool(Parsed));
  EXPECT_EQ(Parsed->numRows(), 0u);
  EXPECT_EQ(Parsed->numFeatures(), 1u);
}

TEST(DatasetIo, RejectsNonNumericCells) {
  auto Parsed = datasetFromCsv("a,dynamic_energy_j\nhello,3\n");
  ASSERT_FALSE(bool(Parsed));
  EXPECT_NE(Parsed.error().message().find("hello"), std::string::npos);
}

TEST(DatasetIo, RejectsSingleColumn) {
  auto Parsed = datasetFromCsv("only\n1\n");
  ASSERT_FALSE(bool(Parsed));
}

TEST(DatasetIo, ExtremeValuesSurviveRoundTrip) {
  Dataset D({"x"});
  D.addRow({1e-308}, 1e308);
  D.addRow({0.1 + 0.2}, -0.0);
  auto Parsed = datasetFromCsv(datasetToCsv(D));
  ASSERT_TRUE(bool(Parsed));
  EXPECT_DOUBLE_EQ(Parsed->row(0)[0], 1e-308);
  EXPECT_DOUBLE_EQ(Parsed->target(0), 1e308);
  EXPECT_DOUBLE_EQ(Parsed->row(1)[0], 0.1 + 0.2);
}

TEST(DatasetIo, RejectsNonFiniteCells) {
  // NaN, +/-Inf and values that overflow to +/-Inf, in a feature column
  // and in the target column, each reported with its row and column.
  for (const char *Cell :
       {"nan", "-nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"}) {
    const std::string Bad(Cell);
    auto Feature = datasetFromCsv("a,b,dynamic_energy_j\n1,2,3\n4," + Bad +
                                  ",6\n");
    ASSERT_FALSE(bool(Feature)) << Bad;
    EXPECT_EQ(Feature.error().message(),
              "non-finite cell '" + Bad + "' in row 3, column 'b'");
    auto Target = datasetFromCsv("a,b,dynamic_energy_j\n1,2," + Bad + "\n");
    ASSERT_FALSE(bool(Target)) << Bad;
    EXPECT_EQ(Target.error().message(),
              "non-finite cell '" + Bad + "' in row 2, column "
              "'dynamic_energy_j'");
  }
}

TEST(DatasetIo, FileReaderRejectsNonFiniteCells) {
  std::string Path = ::testing::TempDir() + "slope_dataset_io_nonfinite.csv";
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("a,dynamic_energy_j\n1,2\ninf,3\n", F);
    std::fclose(F);
  }
  auto Parsed = readDatasetCsv(Path);
  std::remove(Path.c_str());
  ASSERT_FALSE(bool(Parsed));
  EXPECT_EQ(Parsed.error().message(),
            "non-finite cell 'inf' in row 3, column 'a'");
}

TEST(DatasetIo, SubnormalAndUnderflowingCellsLoad) {
  // Finite values at the bottom of the range are data, not errors: the
  // smallest subnormal, a mid subnormal, and 1e-400, which underflows to
  // zero (strtod flags ERANGE, but the value is finite).
  auto Parsed = datasetFromCsv("a,dynamic_energy_j\n"
                               "4.9406564584124654e-324,1e-310\n"
                               "1e-400,-1e-400\n");
  ASSERT_TRUE(bool(Parsed)) << Parsed.error().message();
  ASSERT_EQ(Parsed->numRows(), 2u);
  EXPECT_EQ(Parsed->row(0)[0], std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(Parsed->target(0), 1e-310);
  EXPECT_EQ(Parsed->row(1)[0], 0.0);
  EXPECT_EQ(Parsed->target(1), 0.0);
}
