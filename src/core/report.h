// FigureReport: the output unit of every analysis.
//
// Each figure/table reproduction produces one report: a title, one or more
// aligned text tables (often including explicit paper-vs-measured rows), and
// notes. Bench binaries print reports; `--csv` prints the tables as CSV.
#ifndef RPCSCOPE_SRC_CORE_REPORT_H_
#define RPCSCOPE_SRC_CORE_REPORT_H_

#include <string>
#include <vector>

#include "src/common/table.h"

namespace rpcscope {

struct FigureReport {
  std::string id;     // e.g. "fig02".
  std::string title;  // e.g. "Per-method RPC latency (Fig. 2)".
  std::vector<std::string> notes;
  std::vector<TextTable> tables;

  // Renders title, notes, and all tables for terminal output.
  std::string Render() const;
  std::string RenderCsv() const;
};

// Builds a three-column comparison table ("metric", "paper", "measured").
class ComparisonTable {
 public:
  ComparisonTable();
  void Add(const std::string& metric, const std::string& paper, const std::string& measured);
  TextTable Build() const { return table_; }

 private:
  TextTable table_;
};

// Prints a report to stdout, as CSV when argv contains "--csv". Every bench
// report goes through it, each rpcscope_figures row included.
int RunFigureMain(int argc, char** argv, const FigureReport& report);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_CORE_REPORT_H_
