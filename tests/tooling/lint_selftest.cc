// Self-test for rpcscope_lint: runs the rule engine against fixture files
// with known violations and asserts the exact findings (file, line, rule).
// If a rule regresses — stops firing, fires on clean code, or ignores a
// NOLINT — this is the test that catches it.
#include "tools/lint/linter.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace rpcscope {
namespace lint {
namespace {

#ifndef RPCSCOPE_SOURCE_DIR
#error "build must define RPCSCOPE_SOURCE_DIR"
#endif

std::string ReadFixture(const std::string& name) {
  const std::string path =
      std::string(RPCSCOPE_SOURCE_DIR) + "/tests/tooling/fixtures/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// (line, rule) pairs of `findings`, for exact comparison.
std::vector<std::pair<int, std::string>> Summarize(const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  for (const Finding& f : findings) {
    out.emplace_back(f.line, f.rule);
  }
  return out;
}

TEST(LintSelfTest, WallclockRule) {
  const auto findings = LintFile("src/sim/wallclock.cc", ReadFixture("wallclock.cc"), {});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {8, "rpcscope-wallclock"},
                                     {9, "rpcscope-wallclock"},
                                 }));
}

TEST(LintSelfTest, WallclockRuleOnlyAppliesToVirtualTimeLayers) {
  // The same content under src/core (not a scheduling layer) is clean.
  const auto findings = LintFile("src/core/wallclock.cc", ReadFixture("wallclock.cc"), {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintSelfTest, UnorderedIterationRule) {
  const auto findings =
      LintFile("src/net/unordered_iter.cc", ReadFixture("unordered_iter.cc"), {});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {11, "rpcscope-unordered-iter"},
                                 }));
}

TEST(LintSelfTest, IncludeGuardRule) {
  const auto findings =
      LintFile("src/wire/missing_guard.h", ReadFixture("missing_guard.h"), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rpcscope-include-guard");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("RPCSCOPE_SRC_WIRE_MISSING_GUARD_H_"), std::string::npos);
}

TEST(LintSelfTest, NodiscardStatusRule) {
  const auto findings =
      LintFile("src/rpc/missing_nodiscard.h", ReadFixture("missing_nodiscard.h"), {});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {10, "rpcscope-nodiscard-status"},
                                     {11, "rpcscope-nodiscard-status"},
                                 }));
}

TEST(LintSelfTest, NodiscardRuleOnlyAppliesToFallibleApiLayers) {
  // src/common is outside the enforced directories (Status itself lives
  // there); the rule must not fire.
  const auto findings =
      LintFile("src/common/missing_nodiscard.h", ReadFixture("missing_nodiscard.h"), {});
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "rpcscope-nodiscard-status") << FormatFinding(f);
  }
}

TEST(LintSelfTest, DiscardedStatusRule) {
  const auto findings = LintFile("src/trace/discarded_status.cc",
                                 ReadFixture("discarded_status.cc"), {"SaveToFile", "Parse"});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {14, "rpcscope-discarded-status"},
                                     {15, "rpcscope-discarded-status"},
                                 }));
}

TEST(LintSelfTest, CoutRule) {
  const auto findings =
      LintFile("src/core/cout_in_library.cc", ReadFixture("cout_in_library.cc"), {});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {9, "rpcscope-cout"},
                                     {10, "rpcscope-cout"},
                                 }));
}

TEST(LintSelfTest, CoutRuleDoesNotApplyOutsideSrc) {
  const auto findings =
      LintFile("bench/cout_in_library.cc", ReadFixture("cout_in_library.cc"), {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintSelfTest, RawAssertRule) {
  const auto findings =
      LintFile("src/common/raw_assert.cc", ReadFixture("raw_assert.cc"), {});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {10, "rpcscope-raw-assert"},
                                     {11, "rpcscope-raw-assert"},
                                 }));
}

TEST(LintSelfTest, RawAssertRuleDoesNotApplyOutsideSrc) {
  // Tests, tools and benches may assert freely.
  const auto findings = LintFile("tools/raw_assert.cc", ReadFixture("raw_assert.cc"), {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintSelfTest, SerializeHotpathRule) {
  const auto findings =
      LintFile("src/rpc/serialize_hotpath.cc", ReadFixture("serialize_hotpath.cc"), {});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {14, "rpcscope-serialize-hotpath"},
                                     {15, "rpcscope-serialize-hotpath"},
                                     {17, "rpcscope-serialize-hotpath"},
                                 }));
}

TEST(LintSelfTest, SerializeHotpathRuleDoesNotApplyOutsideSrc) {
  // Tests and benches may use the allocating convenience form freely.
  const auto findings =
      LintFile("bench/serialize_hotpath.cc", ReadFixture("serialize_hotpath.cc"), {});
  EXPECT_TRUE(findings.empty());
}

TEST(LintSelfTest, FunctionHotpathRule) {
  const auto findings =
      LintFile("src/rpc/function_hotpath.cc", ReadFixture("function_hotpath.cc"), {});
  EXPECT_EQ(Summarize(findings), (std::vector<std::pair<int, std::string>>{
                                     {9, "rpcscope-function-hotpath"},
                                     {11, "rpcscope-function-hotpath"},
                                     {12, "rpcscope-function-hotpath"},
                                 }));
}

TEST(LintSelfTest, FunctionHotpathRuleDoesNotApplyOutsideTheRpcPath) {
  // Tests and benches keep std::function, and so do the layers whose
  // callables are built once (the executor, the fleet drivers).
  const std::string fixture = ReadFixture("function_hotpath.cc");
  for (const char* path : {"tests/rpc/function_hotpath.cc", "bench/function_hotpath.cc",
                           "src/sim/parallel/function_hotpath.cc",
                           "src/fleet/function_hotpath.cc"}) {
    EXPECT_TRUE(LintFile(path, fixture, {}).empty()) << path;
  }
}

TEST(LintSelfTest, RawThreadRuleMovedToDetan) {
  // rpcscope-raw-thread is now flow-aware and lives in rpcscope_detan (see
  // detan_selftest.cc); the regex linter must not double-report it.
  const auto findings =
      LintFile("src/monitor/raw_thread.cc", ReadFixture("raw_thread.cc"), {});
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "rpcscope-raw-thread") << FormatFinding(f);
  }
}

TEST(LintSelfTest, CollectFallibleFunctionsFindsDeclarations) {
  const std::string header = R"(
    Status DoWrite(int fd);
    [[nodiscard]] Result<int> ReadValue();
    Result<std::vector<int>> ReadMany(size_t n);
    Status status;        // member, not a function
    void TakesStatus(Status s);
  )";
  const auto names = CollectFallibleFunctions(header);
  EXPECT_EQ(names, (std::vector<std::string>{"DoWrite", "ReadValue", "ReadMany"}));
}

TEST(LintSelfTest, LintTreeOnRealRepoIsClean) {
  // The acceptance gate, in-process: zero unsuppressed findings on the tree,
  // and zero stale NOLINT markers (check_unused mirrors CI's --fail-on-unused).
  const auto findings = LintTree(RPCSCOPE_SOURCE_DIR, /*check_unused=*/true);
  for (const Finding& f : findings) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

}  // namespace
}  // namespace lint
}  // namespace rpcscope
