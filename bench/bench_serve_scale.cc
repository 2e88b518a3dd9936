// Serving-engine scalability: the N-thread serve driver against one
// SimDatabase, on the two-path vehicle registry of the paper's Figure 1.
// Workers contend only inside the engine — class-sharded store latches,
// per-part index latches, epoch-pinned queries, the commit mutex's reader
// side — so read-heavy phases should scale with the worker count while the
// joint online controller keeps reconfiguring mid-stream.
//
// For each thread count the full trace is served on a fresh database:
// a warmup phase (lets the controller install its first configuration),
// a read-heavy phase and a write-heavy phase. The table and
// BENCH_bench_serve_scale.json report per-phase throughput, tail latency
// and the speedup over the single-threaded run.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.h"
#include "serve/serve_driver.h"

namespace {

using namespace pathix;

// The vehicle joint drift trace at bench scale: same schema and path
// overlap as examples/specs/vehicle_joint_trace.pix, no storage budget (the
// solver's feasibility search is not what is being measured here).
constexpr const char* kSpec = R"(
class Person            2000 800 1 64
class Vehicle           300  250 3 64
class Bus     : Vehicle 150  140 2 64
class Truck   : Vehicle 150  140 2 64
class Company           40   40  3 64
class Division          40   40  1 64

ref Person  owns Vehicle  multi
ref Vehicle man  Company  multi
ref Company divs Division multi
attr Division name string

path people Person owns man divs name
load Person   0.3  0.1  0.1
load Division 0.2  0.2  0.1

path fleet Vehicle man divs name
load Vehicle  0.3  0.0  0.1
load Division 0.2  0.1  0.1

orgs MX MIX NIX NONE

populate Person   2000 0  1.0
populate Vehicle  300  0  2.0
populate Bus      150  0  2.0
populate Truck    150  0  2.0
populate Company  40   0  3.0
populate Division 40   40 1.0
trace_seed 1994

phase warmup 2000
mix people Person  0.5 0.2 0.1
mix fleet  Vehicle 0.2 0.0 0.0

phase read_heavy 8000
mix people Person   0.55 0.01 0.01
mix fleet  Vehicle  0.25 0.0  0.0
mix fleet  Division 0.18 0.0  0.0

phase write_heavy 8000
mix people Person  0.06 0.5 0.36
mix fleet  Vehicle 0.02 0.04 0.02
)";

struct PhaseResult {
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t epoch_swaps = 0;
};

std::map<std::string, PhaseResult> RunAt(const TraceSpec& s, int threads) {
  SimDatabase db(s.schema, s.catalog.params());
  ServeDriver driver(&db, s, ServeOptions{threads});
  driver.Populate();

  ControllerOptions copts;
  copts.orgs = s.options.orgs;
  copts.physical_params = s.catalog.params();
  JointReconfigurationController controller(&db, copts);
  db.SetObserver(&controller);

  std::map<std::string, PhaseResult> results;
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const ServePhaseReport r = driver.RunPhase(i, &controller);
    PhaseResult& out = results[r.phase.name];
    out.ops_per_sec = r.ops_per_sec;
    out.p50_us = r.latency_us.Percentile(0.50);
    out.p99_us = r.latency_us.Percentile(0.99);
    out.epoch_swaps = r.epoch_swaps;
  }
  db.SetObserver(nullptr);
  if (!controller.status().ok()) {
    std::fprintf(stderr, "controller error at %d threads: %s\n", threads,
                 controller.status().ToString().c_str());
  }
  return results;
}

}  // namespace

int main() {
  Result<TraceSpec> spec = ParseTraceSpec(kSpec);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec error: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  const TraceSpec& s = spec.value();

  pathix_bench::BenchJson json("bench_serve_scale");
  std::printf(
      "=== Serving engine scalability (two-path vehicle trace) ===\n"
      "(fresh database per thread count; joint controller reconfiguring "
      "mid-stream)\n\n"
      "  threads  phase        ops/sec     p50us   p99us  epochs  speedup\n");

  std::map<std::string, PhaseResult> baseline;
  for (int threads : {1, 2, 4, 8}) {
    const std::map<std::string, PhaseResult> results = RunAt(s, threads);
    if (threads == 1) baseline = results;
    for (const auto& [phase, r] : results) {
      if (phase == "warmup") continue;
      const double base = baseline[phase].ops_per_sec;
      const double speedup = base > 0 ? r.ops_per_sec / base : 0;
      std::printf("  %-8d %-12s %9.0f %8.0f %8.0f %6llu  %.2fx\n", threads,
                  phase.c_str(), r.ops_per_sec, r.p50_us, r.p99_us,
                  static_cast<unsigned long long>(r.epoch_swaps), speedup);
      const std::string key = "t" + std::to_string(threads) + "_" + phase;
      json.Add(key + "_ops_per_sec", r.ops_per_sec);
      json.Add(key + "_p99_us", r.p99_us);
      json.Add(key + "_speedup", speedup);
    }
  }

  std::printf(
      "\n(speedup is ops/sec vs the 1-thread run of the same phase; the\n"
      " 1-thread run is the deterministic sequence the online experiments\n"
      " replay)\n");
  json.Write();
  return 0;
}
