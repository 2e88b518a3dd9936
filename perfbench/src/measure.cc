#include "measure.h"

#include <sys/resource.h>

#include <cmath>
#include <fstream>

namespace perfbench {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  for (std::size_t i = 0; i < dense_.size(); ++i) dense_[i] += other.dense_[i];
  sparse_.insert(sparse_.end(), other.sparse_.begin(), other.sparse_.end());
  count_ += other.count_;
}

void LatencyRecorder::Clear() {
  std::fill(dense_.begin(), dense_.end(), 0);
  sparse_.clear();
  count_ = 0;
}

double LatencyRecorder::PercentileUs(double q) {
  if (count_ == 0) return 0;
  const double n = static_cast<double>(count_);
  const auto rank =
      static_cast<std::uint64_t>(std::clamp(std::ceil(q * n), 1.0, n));
  const std::uint64_t dense_count = count_ - sparse_.size();
  if (rank > dense_count) {
    const auto nth = sparse_.begin() +
                     static_cast<std::ptrdiff_t>(rank - dense_count - 1);
    std::nth_element(sparse_.begin(), nth, sparse_.end());
    return static_cast<double>(*nth) / 1e3;
  }
  std::uint64_t seen = 0;
  for (std::size_t ns = 0;; ++ns) {
    seen += dense_[ns];
    if (seen >= rank) return static_cast<double>(ns) / 1e3;
  }
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

double MeanOf(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Fail(std::uint64_t n, const std::string& why) {
  failed_ += n;
  std::fprintf(stderr, "perfbench: FAILED (%llu): %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("# %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const char* SpanName(std::uint32_t kind) {
  static const char* const kNames[kSpanKinds] = {
      "none",        "op",          "observer",    "index.probe",
      "store.peek",  "pool.build",  "joint.solve", "greedy",
      "cost_matrix"};
  return kind < kSpanKinds ? kNames[kind] : "?";
}

bool WriteSpans(const std::string& file, const std::vector<SpanLog>& logs) {
  std::ofstream out(file);
  if (!out) return false;
  std::int64_t origin = 0;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << SpanName(s.kind)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.worker
          << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": \""
          << SpanName(s.parent) << "\"}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
