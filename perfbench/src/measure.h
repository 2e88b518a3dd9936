#pragma once

// Measurement helpers of the benchmark: a monotonic clock, exact
// percentiles over raw samples, the metric report that becomes the final
// JSON line, and the in-memory span log of a traced run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Exact nearest-rank percentile of \p samples (q in (0, 1]); reorders the
/// vector. 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T>* samples, double q) {
  if (samples->empty()) return 0;
  const double n = static_cast<double>(samples->size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n), 1.0, n));
  const auto nth = samples->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  return static_cast<double>(*nth);
}

/// Every op's latency of a stage, kept exactly at the clock's nanosecond
/// resolution: one counter per nanosecond below kDenseNs, the raw value at
/// or above it. Its memory is allocated and touched once, so it does not
/// grow with the op count and the run's peak RSS does not depend on its
/// throughput.
class LatencyRecorder {
 public:
  static constexpr std::int64_t kDenseNs = std::int64_t{1} << 20;  // ~1 ms

  LatencyRecorder() : dense_(kDenseNs, 0) { sparse_.reserve(1u << 14); }

  void Add(std::int64_t ns) {
    ++count_;
    if (ns < kDenseNs) {
      ++dense_[static_cast<std::size_t>(std::max<std::int64_t>(ns, 0))];
    } else {
      sparse_.push_back(ns);
    }
  }
  /// Adds every sample of \p other.
  void Merge(const LatencyRecorder& other);
  /// Forgets every sample.
  void Clear();
  std::uint64_t count() const { return count_; }
  /// Exact nearest-rank percentile in microseconds (q in (0, 1]); 0 when
  /// empty.
  double PercentileUs(double q);

 private:
  std::vector<std::uint32_t> dense_;
  std::vector<std::int64_t> sparse_;
  std::uint64_t count_ = 0;
};

/// Median of a small set of repeated measurements (copies).
double Median(std::vector<double> values);

/// Arithmetic mean (0 for an empty set).
double MeanOf(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// One named metric of the final report.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Collects the metrics and the outcome of one run and prints them: a
/// readable line per metric, then the one-line JSON result the benchmark
/// contract asks for as the last line of standard output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A human-readable context line (printed before the metrics).
  void Note(const std::string& line) { notes_.push_back(line); }

  void Attempt(std::uint64_t n) { attempted_ += n; }
  void Fail(std::uint64_t n, const std::string& why);

  const std::vector<Metric>& metrics() const { return metrics_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

  /// Prints everything to stdout; the JSON object is the last line.
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Span of a traced run. Spans of one op share \p id; \p parent names the
/// enclosing span's kind (kNoParent for a root).
struct Span {
  std::uint32_t kind = 0;
  std::uint32_t parent = 0;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t worker = 0;
};

/// Span kinds recorded by the benchmark (one per layer boundary it times).
enum SpanKind : std::uint32_t {
  kNoParent = 0,
  kSpanOp,
  kSpanObserver,
  kSpanProbe,
  kSpanPeek,
  kSpanPool,
  kSpanSolve,
  kSpanGreedy,
  kSpanMatrix,
  kSpanKinds,
};

const char* SpanName(std::uint32_t kind);

/// Per-worker, in-memory span buffer. Keeps the first \p cap spans (the
/// rest are counted but not retained, so a long traced run stays small).
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 50000) : cap_(cap) {}

  void Record(const Span& span) {
    ++recorded_;
    if (spans_.size() < cap_) spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t recorded() const { return recorded_; }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t recorded_ = 0;
};

/// Calls fn(i) for i = 0, 1, ... in whole passes of \p pass calls until
/// \p seconds have passed, recording one \p kind span per call; returns
/// each call's time in nanoseconds.
template <typename Fn>
std::vector<double> TimeCalls(std::size_t pass, double seconds,
                              SpanLog* spans, std::uint32_t kind, Fn fn) {
  std::vector<double> ns;
  std::uint64_t i = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t k = 0; k < pass; ++k, ++i) {
      const std::int64_t t0 = NowNs();
      fn(static_cast<std::size_t>(i));
      const std::int64_t t1 = NowNs();
      ns.push_back(static_cast<double>(t1 - t0));
      spans->Record({kind, kNoParent, i, t0, t1, 0});
    }
  } while (SecondsSince(start) < seconds);
  return ns;
}

/// Writes the retained spans of \p logs as Chrome trace events (one "X"
/// event per span; self time is derivable from the parent links).
bool WriteSpans(const std::string& file, const std::vector<SpanLog>& logs);

}  // namespace perfbench
