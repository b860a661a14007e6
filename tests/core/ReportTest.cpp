//===- tests/core/ReportTest.cpp - Report rendering tests -----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include "pmc/PlatformEvents.h"

#include <gtest/gtest.h>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

TEST(Report, Table1CarriesTheSpecs) {
  std::string Text = renderTable1(Platform::intelHaswellServer(),
                                  Platform::intelSkylakeServer());
  EXPECT_NE(Text.find("Intel E5-2670 v3"), std::string::npos);
  EXPECT_NE(Text.find("Intel Xeon Gold 6152"), std::string::npos);
  EXPECT_NE(Text.find("30720 KB"), std::string::npos);
  EXPECT_NE(Text.find("240 W"), std::string::npos);
  EXPECT_NE(Text.find("Ubuntu 16.04 LTS"), std::string::npos);
}

TEST(Report, CompactPmcListUsesIndices) {
  std::vector<std::string> Universe = pmc::haswellClassAPmcNames();
  EXPECT_EQ(compactPmcList({Universe[0], Universe[5]}, Universe, 'X'),
            "X1,X6");
}

TEST(Report, CompactPmcListKeepsUnknownNames) {
  std::vector<std::string> Universe = pmc::haswellClassAPmcNames();
  EXPECT_EQ(compactPmcList({"SOMETHING_ELSE"}, Universe, 'X'),
            "SOMETHING_ELSE");
}

TEST(Report, Table2ListsAllSixPmcs) {
  ClassAResult Result;
  for (const std::string &Name : pmc::haswellClassAPmcNames()) {
    AdditivityResult R;
    R.Name = Name;
    R.MaxErrorPct = 42;
    Result.AdditivityTable.push_back(R);
  }
  std::string Text = renderTable2(Result);
  EXPECT_NE(Text.find("X1: IDQ_MITE_UOPS"), std::string::npos);
  EXPECT_NE(Text.find("X6: UOPS_EXECUTED_PORT_PORT_6"), std::string::npos);
}

TEST(Report, ModelTableWithCoefficients) {
  ModelEvalRow Row;
  Row.Label = "LR1";
  Row.Pmcs = pmc::haswellClassAPmcNames();
  Row.Coefficients = {3.83e-9, 0, 0, 0, 5.56e-8, 0};
  Row.Errors.Min = 6.6;
  Row.Errors.Avg = 31.2;
  Row.Errors.Max = 61.9;
  std::string Text = renderModelFamilyTable("Table 3.", {Row}, true);
  EXPECT_NE(Text.find("LR1"), std::string::npos);
  EXPECT_NE(Text.find("3.83E-09"), std::string::npos);
  EXPECT_NE(Text.find("(6.6, 31.2, 61.9)"), std::string::npos);
  EXPECT_NE(Text.find("X1,X2,X3,X4,X5,X6"), std::string::npos);
}

TEST(Report, ModelTableWithoutCoefficients) {
  ModelEvalRow Row;
  Row.Label = "RF4";
  Row.Pmcs = {"IDQ_MITE_UOPS"};
  std::string Text = renderModelFamilyTable("Table 4.", {Row}, false);
  EXPECT_EQ(Text.find("Coefficients"), std::string::npos);
}
