#include "host.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") {
    return j;
  }
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice, so the remaining fields are not added).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) {
      return CpuJiffies{};
    }
    j.total += v;
    if (field == 7) {
      j.steal = v;
    }
  }
  return j;
}

HostInfo ReadHostInfo() {
  HostInfo h;
  h.cpus_online = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  h.cpus_allowed = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      h.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) >= 2) {
    h.loadavg_1m = load[0];
    h.loadavg_5m = load[1];
  }
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  h.ndebug = true;
#endif
  return h;
}

std::string FilesystemType(const std::string& path) {
  std::error_code ec;
  const std::string target = std::filesystem::weakly_canonical(path, ec).string();
  if (ec) {
    return "unknown";
  }
  std::ifstream mounts("/proc/self/mounts");
  std::string best_dir;
  std::string best_type = "unknown";
  for (std::string line; std::getline(mounts, line);) {
    std::istringstream fields(line);
    std::string device, dir, type;
    if (!(fields >> device >> dir >> type)) {
      continue;
    }
    const bool under = dir == "/" || target == dir ||
                       (target.rfind(dir, 0) == 0 && target.size() > dir.size() &&
                        target[dir.size()] == '/');
    if (under && dir.size() >= best_dir.size()) {
      best_dir = dir;
      best_type = type;
    }
  }
  return best_type;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double JiffiesPerSecond() { return static_cast<double>(sysconf(_SC_CLK_TCK)); }

namespace {

constexpr size_t kProbeSlots = 1 << 14;  // 128 KiB of keys, inside L2.
constexpr uint64_t kProbeKeys = kProbeSlots / 2;
constexpr int kProbeDraws = 1600000;

uint64_t SplitMix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

SpeedProbe::SpeedProbe() : table_(kProbeSlots) {}

double SpeedProbe::Run() {
  const double start = NowSeconds();
  std::fill(table_.begin(), table_.end(), 0);
  const uint64_t mask = kProbeSlots - 1;
  double sum = 0;
  uint64_t hits = 0;
  for (int i = 0; i < kProbeDraws; ++i) {
    const uint64_t bits = SplitMix64(0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1));
    const double u = static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;  // (0, 1]
    sum += std::exp(0.5 * std::log(u));
    // The first kProbeKeys draws insert a key, the rest look one up again.
    const uint64_t key = SplitMix64(static_cast<uint64_t>(i) % kProbeKeys) | 1;
    uint64_t slot = key & mask;
    while (table_[slot] != 0 && table_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    hits += table_[slot] == key ? 1 : 0;
    table_[slot] = key;
  }
  sink_ += static_cast<uint64_t>(sum) + hits;
  return NowSeconds() - start;
}

}  // namespace perfbench
