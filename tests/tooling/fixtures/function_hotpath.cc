// Lint fixture: std::function on the per-RPC path.
// Linted under the pretend path src/rpc/function_hotpath.cc.
#include <functional>

#include "src/sim/callback.h"

namespace rpcscope {

using Hop = std::function<void(int)>;       // line 9: rpcscope-function-hotpath
using PooledHop = SimFunction<void(int)>;   // clean: the move-only pooled form
void Send(std::function<void()> done);      // line 11: rpcscope-function-hotpath
void Deliver(std ::  function<void()> d);   // line 12: spaced qualification still fires
// A comment naming std::function is clean.
const char* kName = "std::function";        // clean: string literal
// NOLINTNEXTLINE(rpcscope-function-hotpath)
using Resolver = std::function<int(int)>;
using Tap = std::function<void()>;  // NOLINT(rpcscope-function-hotpath)

}  // namespace rpcscope
