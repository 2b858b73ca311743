// Lint fixture: assert() in library code.
// Linted under the pretend path src/common/raw_assert.cc.
#include <cassert>

namespace rpcscope {

static_assert(sizeof(int) >= 4, "compile-time checks are exempt");

int Halve(int n) {
  assert(n % 2 == 0);  // line 10: rpcscope-raw-assert
  assert (n >= 0);     // line 11: rpcscope-raw-assert
  // assert(n > 0) in a comment is not code, nor is one in a string:
  const char* note = "assert(n)";
  assert(n < 1000);  // NOLINT(rpcscope-raw-assert)
  return note != nullptr ? n / 2 : 0;
}

}  // namespace rpcscope
