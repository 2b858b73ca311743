#include "tools/detan/detan.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <utility>

#include "tools/analysis/source_tree.h"
#include "tools/analysis/suppressions.h"
#include "tools/analysis/text.h"

namespace rpcscope {
namespace detan {

namespace {

using analysis::FileIndex;
using analysis::Finding;
using analysis::FunctionDef;
using analysis::ProjectIndex;
using analysis::SourceFile;
using analysis::StructDef;
using analysis::SuppressionSet;
using analysis::Token;

constexpr char kUnorderedDigest[] = "detan-unordered-digest";
constexpr char kNondetSource[] = "detan-nondet-source";
constexpr char kFloatMerge[] = "detan-float-merge";
constexpr char kCheckpointField[] = "detan-checkpoint-field";
constexpr char kRawThread[] = "rpcscope-raw-thread";
constexpr char kUnusedNolint[] = "detan-unused-nolint";

// Functions whose transitive callees feed replay-checked digests, merged
// state, or serialized trace bytes. Iteration order inside their closure is
// observable in the final bits.
const std::vector<std::string>& DigestEntries() {
  static const std::vector<std::string> entries = {
      "AggregateDigest",    "ExemplarDigest", "FlushInto",
      "FlushObservability", "MergedSpans",    "MergedCounter",
      "ShardedEventDigest", "SerializeSpans", "ReplayIntoHub",
      "Merge",
  };
  return entries;
}

const std::set<std::string>& IntegerTypes() {
  static const std::set<std::string> types = {
      "int",      "long",     "short",    "unsigned", "size_t",   "ptrdiff_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",  "uint16_t",
      "uint32_t", "uint64_t", "intptr_t", "uintptr_t", "SimTime", "SimDuration",
  };
  return types;
}

const std::set<std::string>& ThreadIdents() {
  static const std::set<std::string> idents = {
      "thread",        "jthread",
      "mutex",         "recursive_mutex",
      "timed_mutex",   "recursive_timed_mutex",
      "shared_mutex",  "shared_timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",        "atomic_flag",
      "lock_guard",    "unique_lock",
      "scoped_lock",   "shared_lock",
      "async",         "future",
      "shared_future", "promise",
      "packaged_task", "barrier",
      "latch",         "counting_semaphore",
      "binary_semaphore", "call_once",
      "once_flag",     "stop_token",
      "stop_source",
  };
  return idents;
}

// Declared-name classification gathered project-wide: which identifiers are
// declared with integer, floating, and ordered-associative types. Used by
// the fold-safety check (an over-approximation keyed by simple name, same as
// the call graph).
struct DeclaredNames {
  std::set<std::string> integer;
  std::set<std::string> floating;
  std::set<std::string> ordered;  // std::map / std::set family.
};

bool IsDecoration(const Token& t) {
  return t.Is(">") || t.Is(">>") || t.Is("&") || t.Is("*") || t.text == "const";
}

void CollectDeclaredNames(const FileIndex& file, DeclaredNames* names) {
  static const std::set<std::string> kOrdered = {"map", "set", "multimap", "multiset"};
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].IsIdent()) {
      continue;
    }
    const bool is_int = IntegerTypes().count(toks[i].text) > 0;
    const bool is_float = toks[i].text == "double" || toks[i].text == "float";
    const bool is_ordered = kOrdered.count(toks[i].text) > 0 && i > 0 && toks[i - 1].Is("::");
    if (!is_int && !is_float && !is_ordered) {
      continue;
    }
    size_t j = i + 1;
    if (is_ordered) {
      if (j >= toks.size() || !toks[j].Is("<")) {
        continue;
      }
      int depth = 0;
      while (j < toks.size()) {
        if (toks[j].Is("<")) {
          ++depth;
        } else if (toks[j].Is(">")) {
          if (--depth == 0) {
            ++j;
            break;
          }
        } else if (toks[j].Is(">>")) {
          depth -= 2;
          if (depth <= 0) {
            ++j;
            break;
          }
        } else if (toks[j].Is(";") || toks[j].Is("{")) {
          break;
        }
        ++j;
      }
    }
    while (j < toks.size() && IsDecoration(toks[j])) {
      ++j;
    }
    if (j < toks.size() && toks[j].IsIdent() && IntegerTypes().count(toks[j].text) == 0 &&
        toks[j].text != "double" && toks[j].text != "float") {
      if (is_ordered) {
        names->ordered.insert(toks[j].text);
      } else if (is_float) {
        names->floating.insert(toks[j].text);
      } else {
        names->integer.insert(toks[j].text);
      }
    }
  }
}

size_t SkipParens(const std::vector<Token>& toks, size_t i, size_t end) {
  int depth = 0;
  for (size_t j = i; j < end; ++j) {
    if (toks[j].Is("(")) {
      ++depth;
    } else if (toks[j].Is(")")) {
      if (--depth == 0) {
        return j + 1;
      }
    }
  }
  return end;
}

size_t SkipBraces(const std::vector<Token>& toks, size_t i, size_t end) {
  int depth = 0;
  for (size_t j = i; j < end; ++j) {
    if (toks[j].Is("{")) {
      ++depth;
    } else if (toks[j].Is("}")) {
      if (--depth == 0) {
        return j + 1;
      }
    }
  }
  return end;
}

// The accumulated variable of an lvalue token sequence: trailing [index]
// groups are stripped (totals[k] accumulates into totals), then the last
// identifier of the member chain is the leaf (acc.total -> total).
std::string LeafName(const std::vector<Token>& toks, const std::vector<size_t>& idx) {
  size_t count = idx.size();
  while (count > 0 && toks[idx[count - 1]].Is("]")) {
    int depth = 0;
    size_t k = count;
    while (k > 0) {
      --k;
      if (toks[idx[k]].Is("]")) {
        ++depth;
      } else if (toks[idx[k]].Is("[")) {
        if (--depth == 0) {
          break;
        }
      }
    }
    count = k;
  }
  for (size_t k = count; k > 0; --k) {
    if (toks[idx[k - 1]].IsIdent()) {
      return toks[idx[k - 1]].text;
    }
  }
  return "";
}

std::string RootName(const std::vector<Token>& toks, const std::vector<size_t>& idx) {
  for (size_t k : idx) {
    if (toks[k].IsIdent()) {
      return toks[k].text;
    }
  }
  return "";
}

// Fold-safety classifier for one loop body. `tail_begin/tail_end` is the
// token range after the loop inside the enclosing function, consulted for
// the collect-then-sort pattern.
class FoldChecker {
 public:
  FoldChecker(const std::vector<Token>& toks, const DeclaredNames& names, size_t tail_begin,
              size_t tail_end)
      : toks_(toks), names_(names), tail_begin_(tail_begin), tail_end_(tail_end) {}

  // True if every statement in [begin, end) is order-insensitive.
  bool BodyIsSafe(size_t begin, size_t end) {
    std::vector<size_t> stmt;
    size_t j = begin;
    while (j < end) {
      const Token& t = toks_[j];
      if (t.Is("{") || t.Is("}")) {
        ++j;
        continue;
      }
      if (t.IsIdent() && t.text == "if" && j + 1 < end && toks_[j + 1].Is("(")) {
        j = SkipParens(toks_, j + 1, end);  // Condition reads are fine.
        continue;
      }
      if (t.IsIdent() && (t.text == "else" || t.text == "continue")) {
        ++j;
        continue;
      }
      if (t.Is(";")) {
        if (!StatementIsSafe(stmt)) {
          return false;
        }
        stmt.clear();
        ++j;
        continue;
      }
      stmt.push_back(j);
      ++j;
    }
    return stmt.empty() || StatementIsSafe(stmt);
  }

 private:
  bool IntegerAccumulator(const std::string& name) const {
    return !name.empty() && names_.integer.count(name) > 0 && names_.floating.count(name) == 0;
  }

  bool StatementIsSafe(const std::vector<size_t>& stmt) {
    if (stmt.empty()) {
      return true;
    }
    const size_t n = stmt.size();
    // ++x; x++; --x; x--  on an integer accumulator.
    if (toks_[stmt[0]].Is("++") || toks_[stmt[0]].Is("--")) {
      std::vector<size_t> rest(stmt.begin() + 1, stmt.end());
      return IntegerAccumulator(LeafName(toks_, rest));
    }
    if (toks_[stmt[n - 1]].Is("++") || toks_[stmt[n - 1]].Is("--")) {
      std::vector<size_t> rest(stmt.begin(), stmt.end() - 1);
      return IntegerAccumulator(LeafName(toks_, rest));
    }
    // lhs op= rhs with a commutative-associative integer op.
    for (size_t k = 0; k < n; ++k) {
      const Token& t = toks_[stmt[k]];
      if (t.Is("+=") || t.Is("|=") || t.Is("&=") || t.Is("^=")) {
        std::vector<size_t> lhs(stmt.begin(), stmt.begin() + static_cast<std::ptrdiff_t>(k));
        return IntegerAccumulator(LeafName(toks_, lhs));
      }
      if (t.Is("-=") || t.Is("*=") || t.Is("/=") || t.Is("%=") || t.Is("<<=") || t.Is(">>=")) {
        return false;  // Not commutative-associative over iteration order.
      }
    }
    // lhs = std::max(...); lhs = std::min(...)  — idempotent commutative fold
    // when the old value participates.
    for (size_t k = 0; k < n; ++k) {
      if (!toks_[stmt[k]].Is("=")) {
        continue;
      }
      std::vector<size_t> lhs(stmt.begin(), stmt.begin() + static_cast<std::ptrdiff_t>(k));
      const std::string leaf = LeafName(toks_, lhs);
      size_t r = k + 1;
      if (r < n && toks_[stmt[r]].text == "std" && r + 1 < n && toks_[stmt[r + 1]].Is("::")) {
        r += 2;
      }
      if (r >= n || !toks_[stmt[r]].IsIdent() ||
          (toks_[stmt[r]].text != "max" && toks_[stmt[r]].text != "min")) {
        return false;
      }
      bool old_value_in_args = false;
      for (size_t a = r + 1; a < n; ++a) {
        if (toks_[stmt[a]].IsIdent() && toks_[stmt[a]].text == leaf) {
          old_value_in_args = true;
        }
      }
      return !leaf.empty() && old_value_in_args;
    }
    // X.push_back(...) / X.insert(...): safe when X is an ordered container
    // (canonicalizes) or is sorted after the loop.
    static const std::set<std::string> kCollectCalls = {"push_back", "emplace_back", "insert",
                                                        "emplace", "push", "append"};
    for (size_t k = 0; k + 1 < n; ++k) {
      if (toks_[stmt[k]].IsIdent() && kCollectCalls.count(toks_[stmt[k]].text) > 0 &&
          toks_[stmt[k + 1]].Is("(")) {
        const std::string target = RootName(toks_, stmt);
        if (target.empty()) {
          return false;
        }
        if (names_.ordered.count(target) > 0) {
          return true;
        }
        return SortedAfterLoop(target);
      }
    }
    return false;
  }

  // True if the enclosing function sorts `target` after the loop:
  // std::sort(target.begin(), ...) / std::stable_sort(...).
  bool SortedAfterLoop(const std::string& target) const {
    for (size_t j = tail_begin_; j + 1 < tail_end_; ++j) {
      if (!toks_[j].IsIdent() || (toks_[j].text != "sort" && toks_[j].text != "stable_sort") ||
          !toks_[j + 1].Is("(")) {
        continue;
      }
      const size_t close = SkipParens(toks_, j + 1, tail_end_);
      for (size_t a = j + 2; a < close; ++a) {
        if (toks_[a].IsIdent() && toks_[a].text == target) {
          return true;
        }
      }
    }
    return false;
  }

  const std::vector<Token>& toks_;
  const DeclaredNames& names_;
  size_t tail_begin_;
  size_t tail_end_;
};

// ---------------------------------------------------------------------------
// Rule 1: detan-unordered-digest
// ---------------------------------------------------------------------------

struct LoopHazard {
  size_t for_token = 0;   // Index of the for/while keyword.
  std::string container;  // The unordered identifier (or type) iterated.
  size_t body_begin = 0;  // First body token (incl. '{' if braced).
  size_t body_end = 0;    // One past the body.
};

// Finds loops over unordered containers in the token range [begin, end).
std::vector<LoopHazard> FindUnorderedLoops(const FileIndex& file,
                                           const std::set<std::string>& unordered_names,
                                           size_t begin, size_t end) {
  const std::vector<Token>& toks = file.tokens;
  std::vector<LoopHazard> hazards;
  for (size_t j = begin; j < end; ++j) {
    if (!toks[j].IsIdent() || (toks[j].text != "for" && toks[j].text != "while")) {
      continue;
    }
    if (j + 1 >= end || !toks[j + 1].Is("(")) {
      continue;
    }
    const size_t header_open = j + 1;
    const size_t header_close = SkipParens(toks, header_open, end);  // One past ')'.
    std::string container;
    if (toks[j].text == "for") {
      // Range-for has ':' at paren depth 1 before any top-level ';'.
      size_t colon = 0;
      int depth = 0;
      for (size_t k = header_open; k < header_close; ++k) {
        if (toks[k].Is("(") || toks[k].Is("[")) {
          ++depth;
        } else if (toks[k].Is(")") || toks[k].Is("]")) {
          --depth;
        } else if (depth == 1 && toks[k].Is(";")) {
          break;  // Classic three-clause for.
        } else if (depth == 1 && toks[k].Is(":")) {
          colon = k;
          break;
        }
      }
      if (colon != 0) {
        for (size_t k = colon + 1; k + 1 < header_close; ++k) {
          if (!toks[k].IsIdent()) {
            continue;
          }
          if (unordered_names.count(toks[k].text) > 0 ||
              analysis::StartsWith(toks[k].text, "unordered_")) {
            container = toks[k].text;
            break;
          }
        }
      }
    }
    if (container.empty()) {
      // Iterator-style loop: `X.begin()` / `X.cbegin()` in the header with X
      // unordered (covers both classic for and while).
      for (size_t k = header_open; k + 2 < header_close; ++k) {
        if (toks[k].IsIdent() && unordered_names.count(toks[k].text) > 0 &&
            (toks[k + 1].Is(".") || toks[k + 1].Is("->")) &&
            (toks[k + 2].text == "begin" || toks[k + 2].text == "cbegin")) {
          container = toks[k].text;
          break;
        }
      }
    }
    if (container.empty()) {
      continue;
    }
    LoopHazard hazard;
    hazard.for_token = j;
    hazard.container = container;
    if (header_close < end && toks[header_close].Is("{")) {
      hazard.body_begin = header_close;
      hazard.body_end = SkipBraces(toks, header_close, end);
    } else {
      hazard.body_begin = header_close;
      size_t k = header_close;
      while (k < end && !toks[k].Is(";")) {
        if (toks[k].Is("(")) {
          k = SkipParens(toks, k, end);
        } else {
          ++k;
        }
      }
      hazard.body_end = k < end ? k + 1 : end;
    }
    hazards.push_back(hazard);
  }
  return hazards;
}

void RunUnorderedDigestRule(const ProjectIndex& index, const DeclaredNames& names,
                            std::vector<SuppressionSet>& supp, std::vector<Finding>* findings) {
  const auto reachable = index.ReachableFrom(DigestEntries());
  std::set<std::pair<size_t, int>> reported;  // (file, line) dedup.
  for (const auto& reach : reachable) {
    const FileIndex& file = index.files()[reach.file];
    if (!analysis::StartsWith(file.rel_path, "src/")) {
      continue;
    }
    const FunctionDef& fn = file.functions[reach.fn];
    const auto hazards = FindUnorderedLoops(file, index.global_unordered_names(), fn.body_begin,
                                            fn.body_end);
    for (const LoopHazard& hazard : hazards) {
      FoldChecker checker(file.tokens, names, hazard.body_end, fn.body_end);
      if (checker.BodyIsSafe(hazard.body_begin, hazard.body_end)) {
        continue;
      }
      const int line = file.tokens[hazard.for_token].line;
      if (!reported.insert({reach.file, line}).second) {
        continue;
      }
      if (supp[reach.file].IsSuppressed(static_cast<size_t>(line) - 1, kUnorderedDigest)) {
        continue;
      }
      findings->push_back(Finding{
          file.rel_path, line, kUnorderedDigest,
          "loop over unordered container '" + hazard.container + "' in '" + fn.qualified +
              "' (reachable from digest entry '" + reach.entry +
              "'): iteration order feeds a digest/merge/serialization path — iterate a "
              "sorted view, or fold order-insensitively (integer += / min / max)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: detan-nondet-source
// ---------------------------------------------------------------------------

// True at a whole-word occurrence of `word` in `line` that is followed
// (after spaces) by '(' and is not a member call (`.word(` / `->word(`).
bool FreeCallOccurs(const std::string& line, const std::string& word) {
  size_t at = 0;
  while ((at = line.find(word, at)) != std::string::npos) {
    const size_t end = at + word.size();
    const bool left_ok = at == 0 || (!std::isalnum(static_cast<unsigned char>(line[at - 1])) &&
                                     line[at - 1] != '_');
    const bool right_ok =
        end >= line.size() ||
        (!std::isalnum(static_cast<unsigned char>(line[end])) && line[end] != '_');
    if (!left_ok || !right_ok) {
      at = end;
      continue;
    }
    const bool member = (at >= 1 && line[at - 1] == '.') ||
                        (at >= 2 && line[at - 2] == '-' && line[at - 1] == '>');
    size_t p = end;
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
      ++p;
    }
    if (!member && p < line.size() && line[p] == '(') {
      return true;
    }
    at = end;
  }
  return false;
}

// Looks for `word<` where the template argument list up to the matching '>'
// (or ',' for first_arg_only) contains a '*'.
bool PointerTemplateArg(const std::string& line, const std::string& word, bool first_arg_only) {
  size_t at = 0;
  while ((at = line.find(word, at)) != std::string::npos) {
    const size_t end = at + word.size();
    const bool left_ok = at == 0 || (!std::isalnum(static_cast<unsigned char>(line[at - 1])) &&
                                     line[at - 1] != '_');
    if (!left_ok || end >= line.size() || line[end] != '<') {
      at = end;
      continue;
    }
    int depth = 0;
    for (size_t p = end; p < line.size(); ++p) {
      if (line[p] == '<') {
        ++depth;
      } else if (line[p] == '>') {
        if (--depth == 0) {
          break;
        }
      } else if (line[p] == ',' && depth == 1 && first_arg_only) {
        break;
      } else if (line[p] == '*' && depth >= 1) {
        return true;
      }
    }
    at = end;
  }
  return false;
}

std::string NondetSourceOnLine(const std::string& line) {
  if (analysis::ContainsWord(line, "random_device")) {
    return "std::random_device is seeded by the host";
  }
  for (const char* fn : {"rand", "srand", "drand48", "lrand48"}) {
    if (FreeCallOccurs(line, fn)) {
      return std::string(fn) + "() uses hidden global state";
    }
  }
  for (const char* clock : {"system_clock", "steady_clock", "high_resolution_clock"}) {
    if (analysis::ContainsWord(line, clock)) {
      return std::string("std::chrono::") + clock + " reads the wall clock";
    }
  }
  for (const char* fn : {"gettimeofday", "clock_gettime", "time"}) {
    if (FreeCallOccurs(line, fn)) {
      return std::string(fn) + "() reads the wall clock";
    }
  }
  if (FreeCallOccurs(line, "getenv")) {
    return "getenv() makes behavior depend on the host environment";
  }
  if (analysis::ContainsWord(line, "directory_iterator") ||
      analysis::ContainsWord(line, "recursive_directory_iterator")) {
    return "directory iteration order is filesystem-dependent";
  }
  if (PointerTemplateArg(line, "hash", /*first_arg_only=*/false)) {
    return "std::hash over a pointer depends on allocation addresses";
  }
  for (const char* container : {"map", "set", "multimap", "multiset", "unordered_map",
                                "unordered_set", "unordered_multimap", "unordered_multiset"}) {
    if (PointerTemplateArg(line, container, /*first_arg_only=*/true)) {
      return "pointer-keyed container: key order/hash depends on allocation addresses";
    }
  }
  return "";
}

void RunNondetSourceRule(const ProjectIndex& index, std::vector<SuppressionSet>& supp,
                         std::vector<Finding>* findings) {
  for (size_t f = 0; f < index.files().size(); ++f) {
    const FileIndex& file = index.files()[f];
    if (!analysis::StartsWith(file.rel_path, "src/") &&
        !analysis::StartsWith(file.rel_path, "tools/") &&
        !analysis::StartsWith(file.rel_path, "bench/")) {
      continue;
    }
    for (size_t i = 0; i < file.lines.size(); ++i) {
      const std::string what = NondetSourceOnLine(file.lines[i]);
      if (what.empty() || supp[f].IsSuppressed(i, kNondetSource)) {
        continue;
      }
      findings->push_back(Finding{
          file.rel_path, static_cast<int>(i) + 1, kNondetSource,
          what + "; replays and cross-worker runs will diverge — use the seeded Rng / "
                 "Simulator::Now() / explicit configuration instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: detan-float-merge
// ---------------------------------------------------------------------------

void RunFloatMergeRule(const ProjectIndex& index, std::vector<SuppressionSet>& supp,
                       std::vector<Finding>* findings) {
  for (size_t f = 0; f < index.files().size(); ++f) {
    const FileIndex& file = index.files()[f];
    if (!analysis::StartsWith(file.rel_path, "src/")) {
      continue;
    }
    for (const StructDef& def : file.structs) {
      if (std::find(def.methods.begin(), def.methods.end(), "Merge") == def.methods.end()) {
        continue;
      }
      for (const auto& field : def.fields) {
        if (!field.is_float) {
          continue;
        }
        if (supp[f].IsSuppressed(static_cast<size_t>(field.line) - 1, kFloatMerge)) {
          continue;
        }
        findings->push_back(Finding{
            file.rel_path, field.line, kFloatMerge,
            "float field '" + field.name + "' in merged struct '" + def.name +
                "': FP addition is not associative, so shard merge order changes the "
                "bits — accumulate in integers (counts, nanos, fixed-point) or keep the "
                "field out of digests"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4: detan-checkpoint-field
// ---------------------------------------------------------------------------

void RunCheckpointRule(const ProjectIndex& index, std::vector<SuppressionSet>& supp,
                       std::vector<Finding>* findings) {
  // Global function-definition lookup by simple and qualified name.
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> by_name;
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> by_qualified;
  for (size_t f = 0; f < index.files().size(); ++f) {
    const auto& fns = index.files()[f].functions;
    for (size_t k = 0; k < fns.size(); ++k) {
      if (!fns[k].has_body) {
        continue;
      }
      by_name[fns[k].name].push_back({f, k});
      by_qualified[fns[k].qualified].push_back({f, k});
    }
  }
  for (size_t f = 0; f < index.files().size(); ++f) {
    const FileIndex& file = index.files()[f];
    for (const StructDef& def : file.structs) {
      if (!def.has_marker) {
        continue;
      }
      for (const std::string& fn_name : def.marker_fns) {
        std::vector<std::pair<size_t, size_t>> defs;
        if (fn_name.find("::") != std::string::npos) {
          const auto it = by_qualified.find(fn_name);
          if (it != by_qualified.end()) {
            defs = it->second;
          }
        } else {
          const auto qualified = by_qualified.find(def.name + "::" + fn_name);
          if (qualified != by_qualified.end()) {
            defs = qualified->second;
          } else {
            const auto simple = by_name.find(fn_name);
            if (simple != by_name.end()) {
              defs = simple->second;
            }
          }
        }
        if (defs.empty()) {
          if (!supp[f].IsSuppressed(static_cast<size_t>(def.marker_line) - 1, kCheckpointField)) {
            findings->push_back(Finding{
                file.rel_path, def.marker_line, kCheckpointField,
                "RPCSCOPE_CHECKPOINTED on '" + def.name + "' names unknown function '" +
                    fn_name + "' (no definition with a body found in the scanned tree)"});
          }
          continue;
        }
        for (const auto& field : def.fields) {
          bool mentioned = false;
          for (const auto& [df, dk] : defs) {
            const FunctionDef& fn = index.files()[df].functions[dk];
            const auto& toks = index.files()[df].tokens;
            for (size_t t = fn.body_begin; t < fn.body_end && !mentioned; ++t) {
              if (toks[t].IsIdent() && toks[t].text == field.name) {
                mentioned = true;
              }
            }
            if (mentioned) {
              break;
            }
          }
          if (mentioned ||
              supp[f].IsSuppressed(static_cast<size_t>(field.line) - 1, kCheckpointField)) {
            continue;
          }
          findings->push_back(Finding{
              file.rel_path, field.line, kCheckpointField,
              "field '" + field.name + "' of checkpointed struct '" + def.name +
                  "' is not mentioned by '" + fn_name +
                  "' — a field added without updating the checkpoint/serialize path "
                  "silently corrupts replays"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 5: rpcscope-raw-thread (include-graph scoped)
// ---------------------------------------------------------------------------

void RunRawThreadRule(const ProjectIndex& index, std::vector<SuppressionSet>& supp,
                      std::vector<Finding>* findings) {
  for (size_t f = 0; f < index.files().size(); ++f) {
    const FileIndex& file = index.files()[f];
    if (analysis::StartsWith(file.rel_path, "src/sim/parallel/")) {
      continue;  // The shard executor is where host threads are allowed.
    }
    bool in_scope = analysis::StartsWith(file.rel_path, "src/");
    if (!in_scope) {
      for (size_t includer : index.TransitiveIncluders(file.rel_path)) {
        if (analysis::StartsWith(index.files()[includer].rel_path, "src/")) {
          in_scope = true;
          break;
        }
      }
    }
    if (!in_scope) {
      continue;
    }
    const std::vector<Token>& toks = file.tokens;
    std::set<int> reported_lines;
    for (size_t j = 0; j < toks.size(); ++j) {
      if (!toks[j].IsIdent()) {
        continue;
      }
      std::string what;
      if (toks[j].text == "thread_local") {
        what = "thread_local";
      } else if (analysis::StartsWith(toks[j].text, "pthread_")) {
        what = "pthreads";
      } else if (j >= 2 && toks[j - 1].Is("::") && toks[j - 2].text == "std" &&
                 (ThreadIdents().count(toks[j].text) > 0 ||
                  analysis::StartsWith(toks[j].text, "atomic_"))) {
        what = "std::" + toks[j].text;
      }
      if (what.empty() || !reported_lines.insert(toks[j].line).second) {
        continue;
      }
      if (supp[f].IsSuppressed(static_cast<size_t>(toks[j].line) - 1, kRawThread)) {
        continue;
      }
      findings->push_back(Finding{
          file.rel_path, toks[j].line, kRawThread,
          what + " outside src/sim/parallel/; the DES is single-threaded per shard domain "
                 "— model concurrency in virtual time, host threads belong to the shard "
                 "executor only (docs/PARALLEL.md)"});
    }
  }
}

}  // namespace

std::vector<analysis::RuleDoc> Rules() {
  return {
      {kUnorderedDigest,
       "unordered-container iteration in functions reachable from digest/merge/serialization "
       "entry points, unless the loop folds order-insensitively or canonicalizes"},
      {kNondetSource,
       "run-to-run nondeterminism sources (random_device, rand, wall clocks, getenv, "
       "directory iteration, pointer keys/hashes); src/ must stay clean"},
      {kFloatMerge,
       "float/double fields in structs with a Merge path: FP accumulation order changes "
       "merged bits"},
      {kCheckpointField,
       "structs marked // RPCSCOPE_CHECKPOINTED must have every non-static field mentioned "
       "by each listed checkpoint function"},
      {kRawThread,
       "host threading primitives in src/ or headers reachable from src/ (ported from "
       "rpcscope_lint; include-graph scoped, src/sim/parallel/ exempt)"},
      {kUnusedNolint, "a NOLINT naming a detan rule that suppressed nothing"},
  };
}

std::vector<Finding> AnalyzeFiles(const std::vector<SourceFile>& files, const Options& options) {
  ProjectIndex index(files);
  DeclaredNames names;
  for (const FileIndex& file : index.files()) {
    CollectDeclaredNames(file, &names);
  }
  std::vector<SuppressionSet> supp;
  supp.reserve(index.files().size());
  for (const FileIndex& file : index.files()) {
    supp.push_back(SuppressionSet::Parse(file.raw_lines));
  }

  std::vector<Finding> findings;
  RunUnorderedDigestRule(index, names, supp, &findings);
  RunNondetSourceRule(index, supp, &findings);
  RunFloatMergeRule(index, supp, &findings);
  RunCheckpointRule(index, supp, &findings);
  RunRawThreadRule(index, supp, &findings);

  if (options.check_unused) {
    std::vector<std::string> known;
    for (const auto& rule : Rules()) {
      known.push_back(rule.name);
    }
    for (size_t f = 0; f < index.files().size(); ++f) {
      const auto unused =
          supp[f].UnusedSuppressions(index.files()[f].rel_path, known, kUnusedNolint);
      findings.insert(findings.end(), unused.begin(), unused.end());
    }
  }
  analysis::SortFindings(findings);
  return findings;
}

std::vector<Finding> AnalyzeTree(const std::string& root, const Options& options) {
  return AnalyzeFiles(analysis::CollectSourceTree(root, analysis::DefaultScanDirs()), options);
}

}  // namespace detan
}  // namespace rpcscope
