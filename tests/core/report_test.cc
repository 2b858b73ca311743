#include "src/core/report.h"

#include <gtest/gtest.h>

namespace rpcscope {
namespace {

TEST(FigureReportTest, RenderContainsTitleNotesAndTables) {
  FigureReport report;
  report.id = "fig99";
  report.title = "A test figure";
  report.notes.push_back("note one");
  ComparisonTable cmp;
  cmp.Add("some metric", "1.0", "1.1");
  report.tables.push_back(cmp.Build());
  const std::string out = report.Render();
  EXPECT_NE(out.find("fig99"), std::string::npos);
  EXPECT_NE(out.find("A test figure"), std::string::npos);
  EXPECT_NE(out.find("note one"), std::string::npos);
  EXPECT_NE(out.find("some metric"), std::string::npos);
  EXPECT_NE(out.find("1.1"), std::string::npos);
}

TEST(FigureReportTest, CsvRendersTablesOnly) {
  FigureReport report;
  report.id = "figX";
  report.title = "CSV test";
  ComparisonTable cmp;
  cmp.Add("m", "p", "v");
  report.tables.push_back(cmp.Build());
  const std::string csv = report.RenderCsv();
  EXPECT_NE(csv.find("metric,paper,measured"), std::string::npos);
  EXPECT_NE(csv.find("m,p,v"), std::string::npos);
  EXPECT_EQ(csv.find("figX"), std::string::npos);
}

TEST(ComparisonTableTest, ThreeColumns) {
  ComparisonTable cmp;
  cmp.Add("a", "b", "c");
  const TextTable t = cmp.Build();
  EXPECT_EQ(t.row_count(), 1u);
}

}  // namespace
}  // namespace rpcscope
