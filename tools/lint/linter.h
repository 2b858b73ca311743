// rpcscope_lint: repo-specific static analysis, token/regex level.
//
// The rules encode correctness contracts the compiler cannot see:
//   rpcscope-nodiscard-status  fallible declarations (Status / Result<T>) in
//                              src/rpc, src/wire, src/trace, src/monitor
//                              headers must be [[nodiscard]].
//   rpcscope-discarded-status  expression-statements that call a known
//                              fallible function and drop the result.
//   rpcscope-wallclock         wall-clock / libc randomness inside src/sim,
//                              src/net, src/fleet — those layers must stay on
//                              deterministic virtual time and seeded Rng.
//   rpcscope-unordered-iter    range-for over an unordered container in
//                              src/sim, src/net, src/fleet — iteration order
//                              feeds event scheduling, a determinism hazard.
//   rpcscope-include-guard     headers must carry the canonical
//                              RPCSCOPE_<PATH>_H_ include guard.
//   rpcscope-cout              std::cout / printf in library code (src/);
//                              libraries report through Status and ostream&
//                              parameters, never the process's stdout.
//   rpcscope-raw-assert        assert() in library code (src/): it compiles
//                              away under NDEBUG, which Release builds
//                              define. static_assert is exempt.
//   rpcscope-serialize-hotpath calls to the vector-returning
//                              Message::Serialize() in src/ — library code
//                              sits on the per-RPC wire path and must use
//                              SerializeTo() into a reused buffer
//                              (docs/PERF.md); the allocating form is for
//                              tests and tools only.
//   rpcscope-function-hotpath  std::function in src/sim (outside
//                              src/sim/parallel), src/net, src/rpc — the
//                              per-RPC path, whose callbacks are the
//                              move-only pooled SimFunction (docs/PERF.md);
//                              a built-once use carries a NOLINT saying why.
//   rpcscope-unused-nolint     a NOLINT naming one of the rules above that
//                              suppressed nothing (opt-in via
//                              --fail-on-unused; CI enables it).
//
// The raw-threading rule (rpcscope-raw-thread) moved to rpcscope_detan,
// which scopes it by the include graph instead of a path regex; existing
// suppressions keep their rule name. See docs/ANALYSIS.md.
//
// Any finding is suppressible on its line with // NOLINT(rpcscope-<rule>) or
// on the preceding line with // NOLINTNEXTLINE(rpcscope-<rule>);
// NOLINT(rpcscope-all) suppresses every rule. No libclang: the linter reads
// files as text, strips comments and string literals, and pattern-matches —
// fast enough to gate every CI build. Text/suppression plumbing is shared
// with rpcscope_detan via tools/analysis/.
#ifndef RPCSCOPE_TOOLS_LINT_LINTER_H_
#define RPCSCOPE_TOOLS_LINT_LINTER_H_

#include <string>
#include <vector>

#include "tools/analysis/finding.h"

namespace rpcscope {
namespace lint {

// Shared with rpcscope_detan; equality ignores the message so tests can
// assert on (file, line, rule).
using Finding = analysis::Finding;

// Rule names and one-line docs, for --list-rules.
std::vector<analysis::RuleDoc> Rules();

// Scans header content for fallible function declarations (returning Status
// or Result<T>) and returns their names. Used to build the project-wide set
// that rpcscope-discarded-status checks call sites against.
std::vector<std::string> CollectFallibleFunctions(const std::string& content);

// Lints one file. `rel_path` selects which rules apply (directory scoping);
// `fallible` is the project-wide fallible-function name set. When
// `check_unused` is set, suppressions naming a lint rule that silenced
// nothing are reported as rpcscope-unused-nolint.
std::vector<Finding> LintFile(const std::string& rel_path, const std::string& content,
                              const std::vector<std::string>& fallible,
                              bool check_unused = false);

// Walks `root` (the repo checkout), collects fallible names from src/
// headers, lints every .h/.cc/.cpp under src/, tests/, bench/, examples/,
// tools/ (skipping any path containing "fixtures"), and returns all findings
// sorted by (file, line).
std::vector<Finding> LintTree(const std::string& root, bool check_unused = false);

// Renders "file:line: [rule] message".
using analysis::FormatFinding;

}  // namespace lint
}  // namespace rpcscope

#endif  // RPCSCOPE_TOOLS_LINT_LINTER_H_
