#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Summary::Spread() const {
  return n >= 2 && median != 0 ? (q3 - q1) / median : 0;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(n=4, method="exclusive"): positions i*(n+1)/4,
  // clamped to [1, n-1], interpolated in exact integer steps of 1/4.
  auto quartile = [&](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

int SpanTrace::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  TraceSpan span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.rep = rep_;
  span.start_s = NowSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanTrace::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_s = NowSeconds();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

bool SpanTrace::WriteJson(const std::vector<TraceSpan>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"start_s\":" << JsonNumber(s.start_s) << ",\"end_s\":" << JsonNumber(s.end_s)
        << ",\"parent\":" << s.parent << ",\"rep\":" << s.rep << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out.flush());
}

std::vector<double> SelfSeconds(const std::vector<TraceSpan>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const TraceSpan& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start_s;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, s.end_s);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return self;
}

std::map<int, std::map<std::string, double>> SelfSecondsByRep(
    const std::vector<TraceSpan>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<int, std::map<std::string, double>> by_rep;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_rep[spans[i].rep][spans[i].name] += self[i];
  }
  return by_rep;
}

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

void Checks::ExpectEq(uint64_t got, uint64_t want, const std::string& what) {
  if (got != want) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), ": got %llu (0x%016llx), want %llu (0x%016llx)",
                  static_cast<unsigned long long>(got), static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want), static_cast<unsigned long long>(want));
    failures_.push_back(what + buf);
  }
}

void Outcome::Record(const Checks& checks) {
  ++attempted_;
  if (!checks.ok()) {
    ++failed_;
    for (const std::string& f : checks.failures()) {
      failures_.push_back("repetition " + std::to_string(attempted_ - 1) + ": " + f);
    }
  }
}

double Outcome::FailedFrac() const {
  return attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
