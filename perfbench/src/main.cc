// perfbench: runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload <fleet_dense|fleet_epochs|catalog_scan> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
// writes the spans to <work-dir>/<workload>-<seed>/spans.json. The last stdout
// line is one JSON object: correct, attempted, failed and metrics. The exit
// code is 0 only when every output check passed; a build without NDEBUG is
// refused with exit code 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "host.h"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kFleetDense;
  uint64_t seed = 0;
  double seconds = 30;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &args->workload);
      if (!have_workload) {
        std::fprintf(stderr, "unknown workload %s\n", value);
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (argc % 2 != 1 || !have_workload || !(args->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <fleet_dense|fleet_epochs|catalog_scan> "
                 "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return false;
  }
  return true;
}

int Run(const Args& args) {
  const HostInfo host = ReadHostInfo();
  if (!host.ndebug) {
    std::fprintf(stderr, "perfbench: built without NDEBUG (build type %s); refusing to measure\n",
                 host.build_type.c_str());
    return 2;
  }
  const std::string work_dir =
      args.work_dir + "/" + WorkloadName(args.workload) + "-" + std::to_string(args.seed);
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: cpus_online=%d cpus_allowed=%d cpu_model=\"%s\" loadavg_1m=%.2f "
              "loadavg_5m=%.2f build_type=%s ndebug=%d checkpoint_fs=%s\n",
              host.cpus_online, host.cpus_allowed, host.cpu_model.c_str(), host.loadavg_1m,
              host.loadavg_5m, host.build_type.c_str(), host.ndebug ? 1 : 0,
              FilesystemType(work_dir).c_str());

  const CpuJiffies jiffies_start = ReadCpuJiffies();
  const double start = NowSeconds();
  BenchOptions options;
  options.seconds = args.seconds;
  options.trace = args.trace;
  BenchResult result =
      RunBenchmark({.workload = args.workload, .seed = args.seed, .work_dir = work_dir}, options,
                   stdout);
  const double wall = NowSeconds() - start;
  const CpuJiffies jiffies_end = ReadCpuJiffies();
  // Steal is system-wide: time the hypervisor gave this guest's vCPUs to
  // others while they wanted to run.
  const double steal = static_cast<double>(jiffies_end.steal - jiffies_start.steal);
  const double total = static_cast<double>(jiffies_end.total - jiffies_start.total);
  std::printf("steal over the run: %.2f%% of all CPU time (%.3f vCPU) in %.1f s\n",
              total > 0 ? 100.0 * steal / total : 0.0,
              wall > 0 ? steal / (wall * JiffiesPerSecond()) : 0.0, wall);

  if (args.trace) {
    const std::string path = work_dir + "/spans.json";
    const bool written = SpanTrace::WriteJson(result.spans, path);
    std::printf("spans: %zu written to %s%s\n", result.spans.size(), path.c_str(),
                written ? "" : " (WRITE FAILED)");
    if (!written) {
      Checks write_check;
      write_check.Expect(false, "writing " + path);
      result.outcome.Record(write_check);
    }
  }
  std::filesystem::remove_all(work_dir + "/ckpt", ec);
  std::printf("%s\n", ResultLine(result.outcome, result.metrics).c_str());
  return result.outcome.ExitCode();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  return perfbench::Run(args);
}
