// Facts about the host a run executed on, recorded beside every result so a
// number can be judged against the machine and the noise it was taken under.
#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Cumulative system-wide CPU jiffies from /proc/stat (zeros when unreadable).
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();

struct HostInfo {
  int cpus_online = 0;      // Online CPUs.
  int cpus_allowed = 0;     // CPUs this process may run on.
  std::string cpu_model;
  double loadavg_1m = 0;
  double loadavg_5m = 0;
  std::string build_type;   // CMake build type the benchmark was compiled as.
  bool ndebug = false;      // Compiled with NDEBUG (assertions off).
};
HostInfo ReadHostInfo();

// Filesystem type of the mount holding `path` (e.g. "ext4", "overlay"), from
// /proc/self/mounts; "unknown" when it cannot be determined.
std::string FilesystemType(const std::string& path);

// getrusage high-water resident set size, MiB.
double PeakRssMiB();

// CPU seconds consumed by the whole process (all threads).
double ProcessCpuSeconds();

// Clock ticks per second of /proc/stat jiffies.
double JiffiesPerSecond();

// A fixed piece of CPU work, timed around every cycle of repetitions to track
// how fast the shared host runs at that moment. The whole host drifts by up
// to 1.7x over minutes, and this probe drifts with the workloads, so a
// cycle's times divided by the probe's time cancel much of that drift
// (perfbench/README.md, "Calibration"). The work is the simulator's kind:
// random variates through log and exp, and inserts and lookups in a 128 KiB
// open-addressing table. It allocates nothing while timed and touches only
// its own table, so neither the program's heap nor a change to src/ can
// change its speed.
class SpeedProbe {
 public:
  // The probe's time on the reference host: a 4-vCPU Xeon VM in its faster
  // periods. Calibrated seconds are host seconds times this over the probe's
  // measured time.
  static constexpr double kReferenceSeconds = 0.05;

  SpeedProbe();

  // Runs the fixed work once; returns host seconds.
  double Run();

 private:
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
