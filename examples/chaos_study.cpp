// Chaos study: a mini-fleet driven through a scripted fault plan, with the
// resilience layer toggled off and on (docs/ROBUSTNESS.md).
//
// One client round-robins over four echo backends for 10 simulated seconds
// while the fault injector plays a timeline of classic cloud failures:
//
//   2.0s - 4.0s   backend 0 crashes, then restarts
//   5.0s - 6.5s   backend 1 is partitioned from the client
//   7.0s - 8.0s   backend 2 goes gray: up, but 100x slower
//   8.5s - 9.0s   the path to backend 3 drops 30% of frames
//   9.2s          a 5000-call burst overloads every backend
//
// The same plan (same seed, bit-identical fault schedule) runs twice:
// undefended, and with retry budgets + attempt watchdogs + outlier ejection +
// deadline-aware load shedding. The tables compare the error taxonomy, the
// goodput, and the successful-call latency tail.
//
//   ./chaos_study [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/fault/injector.h"
#include "src/rpc/channel.h"
#include "src/rpc/server.h"

using namespace rpcscope;

namespace {

constexpr MethodId kEcho = 1;
constexpr int kOpenLoopCalls = 10000;  // 1 call/ms for 10s.
constexpr int kBurstCalls = 5000;      // Overload burst at 9.2s.

struct RunReport {
  int ok = 0;
  std::map<StatusCode, int> errors;
  std::vector<double> ok_latency_us;
  uint64_t retries_attempted = 0;
  uint64_t retries_suppressed = 0;
  uint64_t attempt_timeouts = 0;
  uint64_t ejections = 0;
  uint64_t canary_probes = 0;
  uint64_t readmissions = 0;
  uint64_t requests_shed = 0;
  uint64_t crash_killed = 0;
  uint64_t partition_drops = 0;
  uint64_t loss_drops = 0;
};

RunReport RunScenario(uint64_t seed, bool defended) {
  RpcSystemOptions sys_opts;
  sys_opts.seed = seed;
  sys_opts.fabric.congestion_probability = 0;
  RpcSystem system(sys_opts);
  const Topology& topo = system.topology();

  std::vector<MachineId> backends;
  std::vector<std::unique_ptr<Server>> servers;
  ServerOptions server_opts;
  server_opts.shed_on_deadline = defended;
  for (int i = 0; i < 4; ++i) {
    const MachineId m = topo.MachineAt(0, i);
    backends.push_back(m);
    auto server = std::make_unique<Server>(&system, m, server_opts);
    server->RegisterMethod(kEcho, "Echo", [](std::shared_ptr<ServerCall> call) {
      call->Compute(Micros(200), [call]() {
        call->Finish(Status::Ok(), Payload::Modeled(256));
      });
    });
    servers.push_back(std::move(server));
  }

  ClientOptions client_opts;
  client_opts.retry_budget.enabled = defended;
  Client client(&system, topo.MachineAt(0, 10), client_opts);

  ChannelOptions chan_opts;
  chan_opts.policy = PickPolicy::kRoundRobin;
  chan_opts.default_deadline = Millis(25);
  chan_opts.default_max_retries = 3;
  chan_opts.outlier.enabled = defended;
  chan_opts.outlier.stats_window = Millis(200);
  chan_opts.outlier.min_samples = 8;
  chan_opts.outlier.failure_rate_threshold = 0.5;
  chan_opts.outlier.latency_threshold = Millis(5);
  chan_opts.outlier.base_ejection = Millis(1500);
  Channel channel(&client, "chaos-echo", backends, chan_opts);

  FaultPlan plan;
  plan.crashes.push_back(
      {.machine = backends[0], .at = Seconds(2), .restart_at = Seconds(4)});
  plan.partitions.push_back({.group_a = {client.machine()},
                             .group_b = {backends[1]},
                             .start = Seconds(5),
                             .end = Millis(6500)});
  plan.losses.push_back({.src = client.machine(),
                         .dst = backends[3],
                         .loss_probability = 0.3,
                         .start = Millis(8500),
                         .end = Seconds(9)});
  plan.gray_slowdowns.push_back(
      {.machine = backends[2], .factor = 100.0, .start = Seconds(7), .end = Seconds(8)});
  FaultInjector injector(&system, plan);
  if (Status armed = injector.Arm(); !armed.ok()) {
    std::fprintf(stderr, "failed to arm fault plan: %s\n", armed.ToString().c_str());
    std::exit(1);
  }

  RunReport report;
  auto issue = [&](bool watchdog) {
    CallOptions opts;
    if (watchdog) {
      opts.attempt_timeout = Millis(8);
    }
    channel.Call(kEcho, Payload::Modeled(256), opts,
                 [&](const CallResult& r, Payload) {
                   if (r.status.ok()) {
                     ++report.ok;
                     report.ok_latency_us.push_back(ToMicros(r.latency.Total()));
                   } else {
                     ++report.errors[r.status.code()];
                   }
                 });
  };
  // The steady open-loop traffic carries a per-attempt watchdog sized to its
  // expected latency (sub-ms echo): it converts silently lost frames into
  // prompt UNAVAILABLEs. The burst is bulk work whose queue wait legitimately
  // exceeds any such watchdog, so it relies on the deadline alone.
  for (int i = 0; i < kOpenLoopCalls; ++i) {
    system.sim().Schedule(Millis(1) * i, [&]() { issue(defended); });
  }
  for (int i = 0; i < kBurstCalls; ++i) {
    system.sim().Schedule(Millis(9200) + Micros(i), [&]() { issue(false); });
  }
  system.sim().Run();

  report.retries_attempted = client.retries_attempted();
  report.retries_suppressed = client.retries_suppressed();
  report.attempt_timeouts = client.attempt_timeouts();
  for (size_t b = 0; b < backends.size(); ++b) {
    report.ejections += channel.ejections(b);
    report.canary_probes += channel.canary_probes(b);
    report.readmissions += channel.readmissions(b);
  }
  for (const auto& server : servers) {
    report.requests_shed += server->requests_shed();
    report.crash_killed += server->crash_killed_calls();
  }
  report.partition_drops = injector.partition_drops();
  report.loss_drops = injector.loss_drops();
  std::sort(report.ok_latency_us.begin(), report.ok_latency_us.end());
  return report;
}

std::string Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return "-";
  }
  const size_t i = std::min(sorted.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return FormatDuration(DurationFromMicros(sorted[i]));
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2023;
  const int total = kOpenLoopCalls + kBurstCalls;
  std::printf("chaos study: %d calls over 10s + %d-call burst, seed %llu\n",
              total, kBurstCalls,
              static_cast<unsigned long long>(seed));
  std::printf("fault plan: crash@2s(restart@4s), partition@5s-6.5s, "
              "gray x100 @7s-8s, 30%% loss @8.5s-9s\n\n");

  const RunReport off = RunScenario(seed, /*defended=*/false);
  const RunReport on = RunScenario(seed, /*defended=*/true);

  // --- Error taxonomy: what failed, and as what, with defenses off vs on.
  TextTable taxonomy({"outcome", "undefended", "defended"});
  taxonomy.AddRow({"OK", std::to_string(off.ok), std::to_string(on.ok)});
  std::map<StatusCode, int> codes;
  for (const auto& [code, n] : off.errors) codes[code] += 0;
  for (const auto& [code, n] : on.errors) codes[code] += 0;
  for (const auto& [code, unused] : codes) {
    const auto count = [code = code](const RunReport& r) {
      const auto it = r.errors.find(code);
      return it == r.errors.end() ? 0 : it->second;
    };
    taxonomy.AddRow({std::string(StatusCodeName(code)),
                     std::to_string(count(off)), std::to_string(count(on))});
  }
  std::printf("== error taxonomy ==\n%s\n", taxonomy.Render().c_str());

  // --- Tail latency of successful calls.
  TextTable tail({"quantile", "undefended", "defended"});
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    std::string label = "p";
    label += std::to_string(static_cast<int>(q * 1000));
    tail.AddRow({label, Quantile(off.ok_latency_us, q), Quantile(on.ok_latency_us, q)});
  }
  std::printf("== successful-call latency ==\n%s\n", tail.Render().c_str());

  // --- What the defenses actually did.
  TextTable defense({"mechanism", "undefended", "defended"});
  defense.AddRow({"retries sent", std::to_string(off.retries_attempted),
                  std::to_string(on.retries_attempted)});
  defense.AddRow({"retries suppressed (budget)", std::to_string(off.retries_suppressed),
                  std::to_string(on.retries_suppressed)});
  defense.AddRow({"attempt watchdog timeouts", std::to_string(off.attempt_timeouts),
                  std::to_string(on.attempt_timeouts)});
  defense.AddRow({"backend ejections", std::to_string(off.ejections),
                  std::to_string(on.ejections)});
  defense.AddRow({"canary probes", std::to_string(off.canary_probes),
                  std::to_string(on.canary_probes)});
  defense.AddRow({"readmissions", std::to_string(off.readmissions),
                  std::to_string(on.readmissions)});
  defense.AddRow({"requests shed (deadline)", std::to_string(off.requests_shed),
                  std::to_string(on.requests_shed)});
  defense.AddRow({"in-flight killed by crash", std::to_string(off.crash_killed),
                  std::to_string(on.crash_killed)});
  defense.AddRow({"frames lost (partition)", std::to_string(off.partition_drops),
                  std::to_string(on.partition_drops)});
  defense.AddRow({"frames lost (packet loss)", std::to_string(off.loss_drops),
                  std::to_string(on.loss_drops)});
  std::printf("== resilience mechanisms ==\n%s\n", defense.Render().c_str());

  const double goodput_off = 100.0 * off.ok / total;
  const double goodput_on = 100.0 * on.ok / total;
  std::printf("goodput under identical faults: %.2f%% undefended -> %.2f%% defended\n",
              goodput_off, goodput_on);
  return on.ok > off.ok ? 0 : 1;
}
