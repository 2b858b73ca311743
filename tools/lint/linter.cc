#include "tools/lint/linter.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "tools/analysis/source_tree.h"
#include "tools/analysis/suppressions.h"
#include "tools/analysis/text.h"

namespace rpcscope {
namespace lint {

namespace {

using analysis::ContainsWord;
using analysis::Sanitize;
using analysis::SplitLines;
using analysis::StartsWith;
using analysis::SuppressionSet;

constexpr char kUnusedNolint[] = "rpcscope-unused-nolint";

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// Expected canonical include guard for a repo-relative header path:
// src/common/check.h -> RPCSCOPE_SRC_COMMON_CHECK_H_.
std::string ExpectedGuard(const std::string& rel_path) {
  std::string guard = "RPCSCOPE_";
  for (char c : rel_path) {
    if (c == '/' || c == '.' || c == '-') {
      guard += '_';
    } else {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

// Identifier names declared as unordered containers in this file (variables
// and members; token-level, so template parameters inside <> are skipped by
// matching the name after the closing angle or after the full type).
std::vector<std::string> CollectUnorderedNames(const std::vector<std::string>& lines) {
  static const std::regex kDecl(
      R"(unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+([A-Za-z_]\w*))");
  std::vector<std::string> names;
  for (const std::string& line : lines) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      names.push_back((*it)[1].str());
    }
  }
  return names;
}

struct RulePattern {
  const char* pattern;
  const char* what;
};

}  // namespace

std::vector<analysis::RuleDoc> Rules() {
  return {
      {"rpcscope-nodiscard-status",
       "fallible declarations (Status / Result<T>) in fallible-API headers must be "
       "[[nodiscard]]"},
      {"rpcscope-discarded-status",
       "expression-statements that call a known fallible function and drop the result"},
      {"rpcscope-wallclock",
       "wall-clock / libc randomness in the virtual-time layers (src/sim, src/net, "
       "src/fault, src/fleet)"},
      {"rpcscope-unordered-iter",
       "range-for over an unordered container in a scheduling layer; order feeds event "
       "timing"},
      {"rpcscope-include-guard", "headers must carry the canonical RPCSCOPE_<PATH>_H_ guard"},
      {"rpcscope-cout", "std::cout / printf in library code (src/)"},
      {"rpcscope-raw-assert",
       "assert() in library code (src/); use RPCSCOPE_CHECK or RPCSCOPE_DCHECK"},
      {"rpcscope-serialize-hotpath",
       "allocating Message::Serialize() on the wire path; use SerializeTo()"},
      {"rpcscope-function-hotpath",
       "std::function on the per-RPC path (src/sim outside parallel/, src/net, src/rpc); "
       "use SimFunction"},
      {kUnusedNolint,
       "a NOLINT naming a lint rule that suppressed nothing (enabled by --fail-on-unused)"},
  };
}

std::vector<std::string> CollectFallibleFunctions(const std::string& content) {
  const std::vector<std::string> raw = SplitLines(content);
  const std::vector<std::string> lines = Sanitize(raw);
  // A declaration line: optional attributes/specifiers, then Status or
  // Result<...> as the return type, then the function name and '('. Member
  // fields ("Status status;") and parameters ("Status status,") have no '('
  // directly after the name, so they do not match.
  static const std::regex kDecl(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|inline\s+|virtual\s+|friend\s+|constexpr\s+)*(?:Status|Result<[^;{}()]*>)\s+([A-Za-z_]\w*)\s*\()");
  std::vector<std::string> names;
  for (const std::string& line : lines) {
    std::smatch m;
    if (std::regex_search(line, m, kDecl)) {
      const std::string name = m[1].str();
      if (name != "operator" && name != "Ok") {
        names.push_back(name);
      }
    }
  }
  return names;
}

std::vector<Finding> LintFile(const std::string& rel_path, const std::string& content,
                              const std::vector<std::string>& fallible, bool check_unused) {
  std::vector<Finding> findings;
  const std::vector<std::string> raw = SplitLines(content);
  const std::vector<std::string> lines = Sanitize(raw);
  SuppressionSet supp = SuppressionSet::Parse(raw);

  const bool in_src = StartsWith(rel_path, "src/");
  const bool virtual_time_layer = StartsWith(rel_path, "src/sim/") ||
                                  StartsWith(rel_path, "src/net/") ||
                                  StartsWith(rel_path, "src/fault/") ||
                                  StartsWith(rel_path, "src/fleet/");
  const bool rpc_path_layer =
      (StartsWith(rel_path, "src/sim/") && !StartsWith(rel_path, "src/sim/parallel/")) ||
      StartsWith(rel_path, "src/net/") || StartsWith(rel_path, "src/rpc/");
  const bool fallible_api_layer = StartsWith(rel_path, "src/rpc/") ||
                                  StartsWith(rel_path, "src/fault/") ||
                                  StartsWith(rel_path, "src/wire/") ||
                                  StartsWith(rel_path, "src/trace/") ||
                                  StartsWith(rel_path, "src/monitor/");

  auto add = [&](size_t idx, const char* rule, std::string message) {
    if (!supp.IsSuppressed(idx, rule)) {
      findings.push_back(Finding{rel_path, static_cast<int>(idx) + 1, rule, std::move(message)});
    }
  };

  // --- rpcscope-include-guard -----------------------------------------------
  if (IsHeader(rel_path)) {
    const std::string guard = ExpectedGuard(rel_path);
    bool found = false;
    for (size_t i = 0; i + 1 < lines.size() && !found; ++i) {
      if (lines[i].find("#ifndef " + guard) != std::string::npos &&
          lines[i + 1].find("#define " + guard) != std::string::npos) {
        found = true;
      }
    }
    if (!found && !supp.IsSuppressedAnywhere("rpcscope-include-guard")) {
      findings.push_back(Finding{rel_path, 1, "rpcscope-include-guard",
                                 "header must use the canonical include guard " + guard});
    }
  }

  // --- rpcscope-nodiscard-status --------------------------------------------
  if (fallible_api_layer && IsHeader(rel_path)) {
    static const std::regex kDecl(
        R"(^\s*(?:static\s+|inline\s+|virtual\s+|friend\s+|constexpr\s+)*(?:Status|Result<[^;{}()]*>)\s+([A-Za-z_]\w*)\s*\()");
    for (size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(lines[i], m, kDecl)) {
        continue;
      }
      const bool marked = lines[i].find("[[nodiscard]]") != std::string::npos ||
                          (i > 0 && lines[i - 1].find("[[nodiscard]]") != std::string::npos);
      if (!marked) {
        add(i, "rpcscope-nodiscard-status",
            "fallible declaration '" + m[1].str() + "' must be [[nodiscard]]");
      }
    }
  }

  // --- rpcscope-discarded-status --------------------------------------------
  if (!fallible.empty()) {
    // An expression-statement that is just a call to a fallible function:
    // optional object/namespace qualification, the name, '('. Assignments,
    // returns, conditions, and initializations do not match because the call
    // is not at statement start.
    std::string alternation;
    for (const std::string& name : fallible) {
      if (!alternation.empty()) {
        alternation += '|';
      }
      alternation += name;
    }
    const std::regex call_stmt(R"(^\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*()" + alternation +
                               R"()\s*\()");
    auto starts_statement = [&lines](size_t i) {
      // A line begins a statement only if the previous non-blank line ended
      // one. Otherwise it is a continuation (wrapped argument list, RHS of an
      // initialization) and the call result is consumed by the outer
      // expression.
      for (size_t j = i; j > 0; --j) {
        const std::string& prev = lines[j - 1];
        const size_t last = prev.find_last_not_of(" \t");
        if (last == std::string::npos) {
          continue;  // Blank; keep looking up.
        }
        const char c = prev[last];
        return c == ';' || c == '{' || c == '}' || c == ':';
      }
      return true;  // First line of the file.
    };
    for (size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(lines[i], m, call_stmt)) {
        continue;
      }
      if (!starts_statement(i)) {
        continue;
      }
      // Declarations/definitions of the function itself start with a type
      // name, so a match here is genuinely a call at statement start. Skip
      // lines that are part of a larger expression.
      const std::string& line = lines[i];
      if (line.find("return") != std::string::npos || line.find('=') != std::string::npos ||
          line.find("if") != std::string::npos || line.find("while") != std::string::npos ||
          line.find("EXPECT") != std::string::npos || line.find("ASSERT") != std::string::npos ||
          line.find("CHECK") != std::string::npos) {
        continue;
      }
      // `(void)Foo();` is the sanctioned explicit discard.
      if (line.find("(void)") != std::string::npos) {
        continue;
      }
      add(i, "rpcscope-discarded-status",
          "result of fallible call '" + m[1].str() + "' is discarded");
    }
  }

  // --- rpcscope-wallclock ---------------------------------------------------
  if (virtual_time_layer) {
    static const RulePattern kWallclock[] = {
        {R"(std::chrono::system_clock)", "std::chrono::system_clock"},
        {R"(std::chrono::steady_clock)", "std::chrono::steady_clock"},
        {R"(std::chrono::high_resolution_clock)", "std::chrono::high_resolution_clock"},
        {R"(\bgettimeofday\s*\()", "gettimeofday()"},
        {R"(\bclock_gettime\s*\()", "clock_gettime()"},
        {R"(\btime\s*\()", "time()"},
        {R"(\brand\s*\()", "rand()"},
        {R"(\bsrand\s*\()", "srand()"},
        {R"(std::random_device)", "std::random_device"},
    };
    for (size_t i = 0; i < lines.size(); ++i) {
      for (const RulePattern& p : kWallclock) {
        if (std::regex_search(lines[i], std::regex(p.pattern))) {
          add(i, "rpcscope-wallclock",
              std::string(p.what) +
                  " in a virtual-time layer; use Simulator::Now() / seeded Rng");
          break;
        }
      }
    }
  }

  // --- rpcscope-unordered-iter ----------------------------------------------
  if (virtual_time_layer) {
    const std::vector<std::string> unordered_names = CollectUnorderedNames(lines);
    static const std::regex kRangeFor(R"(for\s*\(.*:(.*)\))");
    for (size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(lines[i], m, kRangeFor)) {
        continue;
      }
      const std::string range_expr = m[1].str();
      bool hazardous = range_expr.find("unordered_") != std::string::npos;
      for (const std::string& name : unordered_names) {
        hazardous = hazardous || ContainsWord(range_expr, name);
      }
      if (hazardous) {
        add(i, "rpcscope-unordered-iter",
            "iteration over an unordered container in a scheduling layer; order feeds "
            "event timing — use a sorted container or sort keys first");
      }
    }
  }

  // --- rpcscope-serialize-hotpath -------------------------------------------
  if (in_src) {
    // Matches member calls `.Serialize(` / `->Serialize(`. The definition
    // (`Message::Serialize`) and the SerializeTo() replacement do not match.
    static const std::regex kSerializeCall(R"((\.|->)\s*Serialize\s*\()");
    for (size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(lines[i], kSerializeCall)) {
        add(i, "rpcscope-serialize-hotpath",
            "vector-returning Serialize() allocates per message on the wire path; "
            "use SerializeTo() with a reused buffer (see docs/PERF.md)");
      }
    }
  }

  // --- rpcscope-function-hotpath --------------------------------------------
  if (rpc_path_layer) {
    // Comments and string literals are already stripped, so only code
    // mentions match; <functional> itself does not.
    static const std::regex kStdFunction(R"(\bstd\s*::\s*function\b)");
    for (size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(lines[i], kStdFunction)) {
        add(i, "rpcscope-function-hotpath",
            "std::function heap-allocates captures past 16 bytes; per-hop callbacks on the "
            "RPC path use SimFunction (src/sim/callback.h) — a callable built once and only "
            "called afterwards needs a NOLINT saying so");
      }
    }
  }

  // --- rpcscope-cout --------------------------------------------------------
  if (in_src) {
    static const RulePattern kStdout[] = {
        {R"(std::cout)", "std::cout"},
        {R"(\bprintf\s*\()", "printf()"},
        {R"(\bfprintf\s*\(\s*stdout)", "fprintf(stdout, ...)"},
        {R"(\bputs\s*\()", "puts()"},
    };
    for (size_t i = 0; i < lines.size(); ++i) {
      for (const RulePattern& p : kStdout) {
        if (std::regex_search(lines[i], std::regex(p.pattern))) {
          add(i, "rpcscope-cout",
              std::string(p.what) +
                  " in library code; report via Status or take an std::ostream&");
          break;
        }
      }
    }
  }

  // --- rpcscope-raw-assert --------------------------------------------------
  if (in_src) {
    // \b keeps static_assert (a compile-time check) and <cassert> out.
    static const std::regex kAssert(R"(\bassert\s*\()");
    for (size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(lines[i], kAssert)) {
        add(i, "rpcscope-raw-assert",
            "assert() compiles away under NDEBUG, which Release builds define; use "
            "RPCSCOPE_CHECK (always on) or RPCSCOPE_DCHECK (hot paths)");
      }
    }
  }

  // --- rpcscope-unused-nolint -----------------------------------------------
  if (check_unused) {
    std::vector<std::string> known;
    for (const auto& rule : Rules()) {
      if (rule.name != kUnusedNolint) {
        known.push_back(rule.name);
      }
    }
    const auto unused = supp.UnusedSuppressions(rel_path, known, kUnusedNolint);
    findings.insert(findings.end(), unused.begin(), unused.end());
  }

  return findings;
}

std::vector<Finding> LintTree(const std::string& root, bool check_unused) {
  const std::vector<analysis::SourceFile> files =
      analysis::CollectSourceTree(root, analysis::DefaultScanDirs());

  // Pass 1: fallible-function names from src/ headers.
  std::set<std::string> fallible_set;
  fallible_set.insert("GetVarint64");  // bool-fallible: out-param undefined on false.
  for (const auto& file : files) {
    if (!StartsWith(file.rel_path, "src/") || !IsHeader(file.rel_path)) {
      continue;
    }
    for (const std::string& name : CollectFallibleFunctions(file.content)) {
      fallible_set.insert(name);
    }
  }
  const std::vector<std::string> fallible(fallible_set.begin(), fallible_set.end());

  // Pass 2: lint every file.
  std::vector<Finding> findings;
  for (const auto& file : files) {
    std::vector<Finding> file_findings =
        LintFile(file.rel_path, file.content, fallible, check_unused);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  analysis::SortFindings(findings);
  return findings;
}

}  // namespace lint
}  // namespace rpcscope
