// pathix_perfbench: one run of one benchmark workload.
//
//   pathix_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR]
//
// Prints context lines starting with '#', then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (a separate run with
// spans, written to DIR/spans_<workload>.json). Exits 1 when a correctness
// check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "measure.h"
#include "workloads.h"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown compiler";
#endif

/// Every per-layer metric, with its unit. A layer a workload leaves idle
/// reports 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"serve.speedup", "x"},
    {"serve.worker_skew", "x"},
    {"exec.query_us", "us"},
    {"exec.insert_us", "us"},
    {"exec.delete_us", "us"},
    {"exec.naive_query_ms", "ms"},
    {"exec.naive_share", "ratio"},
    {"index.probe_us", "us"},
    {"index.parts_built", "count"},
    {"index.build_pages", "pages"},
    {"storage.peek_ns", "ns"},
    {"storage.reads_per_op", "pages/op"},
    {"storage.writes_per_op", "pages/op"},
    {"storage.hit_rate", "ratio"},
    {"storage.evictions_per_kop", "1/kop"},
    {"storage.writebacks_per_kop", "1/kop"},
    {"online.observe_ns", "ns"},
    {"online.check_ms", "ms"},
    {"online.commit_ms", "ms"},
    {"online.checks", "count"},
    {"online.reconfigs", "count"},
    {"online.time_share", "ratio"},
    {"advisor.pool_ms", "ms"},
    {"advisor.solve_ms", "ms"},
    {"advisor.nodes_explored", "count"},
    {"advisor.nodes_pruned", "count"},
    {"core.greedy_ms", "ms"},
    {"core.matrix_us", "us"},
    {"datagen.populate_s", "s"},
    {"trace.untraced_ops_per_s", "1/s"},
    {"trace.traced_ops_per_s", "1/s"},
    {"trace.overhead", "x"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "pathix_perfbench: %s\nusage: pathix_perfbench --workload "
               "read_mostly|write_churn --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!have_workload) return Usage("--workload is required");
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  perfbench::Report report;
  char line[256];
  std::snprintf(line, sizeof(line),
                "nproc %u | compiler %s | build type %s | trace %d",
                std::thread::hardware_concurrency(), kCompiler,
                PERFBENCH_BUILD_TYPE, args.trace ? 1 : 0);
  report.Note(line);
  if (perfbench::IsServingWorkload(args.workload)) {
    perfbench::RunServing(args, &report);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace) {
    std::set<std::string> have;
    for (const perfbench::Metric& m : report.metrics()) have.insert(m.name);
    for (const auto& [name, unit] : kPerLayer) {
      if (have.count(name) == 0) report.Add(name, 0, unit);
    }
  }
  if (report.attempted() == 0) report.Fail(1, "nothing was attempted");
  report.Print();
  return report.correct() ? 0 : 1;
}
