// Measurement plumbing shared by the benchmark binary and its self-test:
// order statistics, an in-memory span trace with per-layer self time, output
// checks with failure accounting, and a minimal JSON writer.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the host's monotonic clock.
inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median and quartiles of a sample. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so the spread a
// run prints is the same statistic the benchmark's acceptance check applies
// across runs.
struct Summary {
  size_t n = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  // (q3 - q1) / median; 0 for fewer than two values or a zero median.
  double Spread() const;
};
Summary Summarize(std::vector<double> values);

// One timed call into a layer. `parent` indexes the enclosing span (-1 at the
// top); `rep` is the repetition the call belongs to (-1 outside any).
struct TraceSpan {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int rep = -1;
};

// Spans recorded by one thread, kept in memory until the run ends. A disabled
// trace records nothing and reads no clock.
class SpanTrace {
 public:
  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_rep(int rep) { rep_ = rep; }

  // Opens a span under the innermost open one; returns its index, or -1
  // when disabled.
  int Begin(const std::string& name);
  // Closes the span Begin returned (a no-op for -1). Spans close in LIFO order.
  void End(int id);

  const std::vector<TraceSpan>& spans() const { return spans_; }

  // Writes spans as a JSON array; returns false if the file cannot be written.
  static bool WriteJson(const std::vector<TraceSpan>& spans, const std::string& path);

 private:
  bool enabled_;
  int rep_ = -1;
  std::vector<TraceSpan> spans_;
  std::vector<int> open_;
};

// RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace& trace, const std::string& name) : trace_(trace), id_(trace.Begin(name)) {}
  ~ScopedSpan() { trace_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace& trace_;
  int id_;
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover.
std::vector<double> SelfSeconds(const std::vector<TraceSpan>& spans);

// Self time summed per (repetition, span name).
std::map<int, std::map<std::string, double>> SelfSecondsByRep(const std::vector<TraceSpan>& spans);

// Output checks of one repetition. Each failed expectation is kept with its
// description so the run can say what broke.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  void ExpectEq(uint64_t got, uint64_t want, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// Repetition outcomes of one run: a repetition fails when any of its checks
// failed.
class Outcome {
 public:
  void Record(const Checks& checks);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double FailedFrac() const;
  // 0 when every attempted repetition passed, 1 otherwise (also when nothing
  // was attempted).
  int ExitCode() const { return attempted_ > 0 && failed_ == 0 ? 0 : 1; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// Formats a double with all 17 significant digits (JSON has no NaN or
// infinity; those print as 0).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
