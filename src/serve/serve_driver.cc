#include "serve/serve_driver.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

namespace pathix {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

/// Worker \p w's share of \p ops under the stripe split (workers
/// 0..ops%N-1 take the remainder).
std::uint64_t OpsForWorker(std::uint64_t ops, std::size_t w, std::size_t n) {
  return ops / n + (w < ops % n ? 1 : 0);
}

}  // namespace

ServeDriver::ServeDriver(SimDatabase* db, const TraceSpec& spec,
                         ServeOptions options)
    : db_(db),
      spec_(&spec),
      threads_(options.threads > 0 ? options.threads : 1) {
  rngs_.reserve(static_cast<std::size_t>(threads_));
  // Worker 0 draws from the spec's seed itself; the other workers mix the
  // thread id in with the golden-ratio constant so nearby seeds do not
  // collide across streams.
  rngs_.emplace_back(spec.seed);
  for (int t = 1; t < threads_; ++t) {
    rngs_.emplace_back(static_cast<std::mt19937::result_type>(
        spec.seed + 0x9E3779B9u * static_cast<unsigned>(t)));
  }
  shards_.resize(static_cast<std::size_t>(threads_));
  for (const TracePath& tp : spec.paths) {
    const Status registered = db_->RegisterPath(tp.id, tp.path);
    PATHIX_DCHECK(registered.ok());
    (void)registered;
  }
}

void ServeDriver::Populate() {
  std::vector<ClassGenSpec> specs;
  specs.reserve(spec_->populate.size());
  for (const TracePopulate& p : spec_->populate) {
    specs.push_back(ClassGenSpec{p.cls, p.count, p.distinct_values, p.nin});
  }
  std::vector<const Path*> paths;
  paths.reserve(spec_->paths.size());
  for (const TracePath& tp : spec_->paths) paths.push_back(&tp.path);
  PathDataGenerator gen(spec_->seed);
  std::map<ClassId, std::vector<Oid>> live = gen.Populate(db_, paths, specs);

  // Round-robin stripe: oid i of a class lands in shard i % N, so with one
  // worker shard 0 is the whole population, in generation order.
  for (auto& shard : shards_) shard.clear();
  const auto n = static_cast<std::size_t>(threads_);
  for (auto& [cls, oids] : live) {
    for (std::size_t i = 0; i < oids.size(); ++i) {
      shards_[i % n][cls].push_back(oids[i]);
    }
  }
}

std::map<ClassId, std::vector<Oid>> ServeDriver::LiveMerged() const {
  std::map<ClassId, std::vector<Oid>> merged;
  for (const auto& shard : shards_) {
    for (const auto& [cls, oids] : shard) {
      std::vector<Oid>& out = merged[cls];
      out.insert(out.end(), oids.begin(), oids.end());
    }
  }
  return merged;
}

ServePhaseReport ServeDriver::RunPhase(
    std::size_t phase_index, JointReconfigurationController* controller) {
  if (controller == nullptr) return RunPhaseOps(phase_index);
  const double charged_before = controller->transition_pages_charged();
  const double measured_before =
      controller->measured_transition_pages_charged();
  // Committed counts, not events().size(): the retained log is bounded
  // (ControllerOptions::max_event_log) and may evict.
  const std::uint64_t events_before = controller->events_committed();
  const std::uint64_t decisions_before = controller->decisions_committed();
  ServePhaseReport out = RunPhaseOps(phase_index);
  PhaseReport& report = out.phase;
  report.transition_pages =
      controller->transition_pages_charged() - charged_before;
  report.measured_transition_pages =
      controller->measured_transition_pages_charged() - measured_before;
  report.reconfigurations =
      static_cast<int>(controller->events_committed() - events_before);
  // The phase's slice of the decision ledger, stamped with the phase name.
  // What the bounded ledger still retains is the newest suffix; anything
  // older than its window is counted but not copied.
  report.decisions_captured =
      controller->decisions_committed() - decisions_before;
  const std::vector<DecisionRecord>& ledger = controller->decisions();
  const std::uint64_t retained_start =
      controller->decisions_committed() -
      static_cast<std::uint64_t>(ledger.size());
  const std::uint64_t slice_start = std::max(decisions_before, retained_start);
  for (std::size_t i = static_cast<std::size_t>(slice_start - retained_start);
       i < ledger.size(); ++i) {
    report.decisions.push_back(ledger[i]);
    report.decisions.back().phase = report.name;
  }
  return out;
}

ServePhaseReport ServeDriver::RunPhaseOps(std::size_t phase_index) {
  const TracePhase& phase = spec_->phases[phase_index];
  ServePhaseReport out;
  out.threads = threads_;
  PhaseReport& report = out.phase;
  report.name = phase.name;
  report.ops = phase.ops;

  const std::vector<TraceOpExecutor::MixEntry> entries =
      TraceOpExecutor::FlattenMix(phase);
  if (entries.empty()) return out;
  std::vector<double> weights;
  weights.reserve(entries.size());
  for (const TraceOpExecutor::MixEntry& e : entries) {
    weights.push_back(e.weight);
  }

  obs::MetricsRegistry& metrics = db_->metrics();
  obs::Counter& epoch_counter =
      metrics.CounterAt("pathix_db_config_epochs_total");
  const double epochs_before = epoch_counter.Value();

  const auto n = static_cast<std::size_t>(threads_);
  std::vector<PhaseReport> tallies(n);
  std::vector<obs::HistogramData> latencies(n);
  const AccessProbe probe(db_->pager());
  const SteadyClock::time_point phase_start = SteadyClock::now();

  // One op loop per worker: own distribution object, own RNG stream, own
  // pool shard, own tallies. Nothing here is shared mutably across
  // workers — contention lives inside the database.
  const auto worker = [&](std::size_t w) {
    std::discrete_distribution<std::size_t> pick(weights.begin(),
                                                 weights.end());
    TraceOpExecutor exec(db_, spec_, &rngs_[w], &shards_[w]);
    PhaseReport& tally = tallies[w];
    obs::HistogramData& latency = latencies[w];
    const std::uint64_t count = OpsForWorker(phase.ops, w, n);
    for (std::uint64_t i = 0; i < count; ++i) {
      const SteadyClock::time_point op_start = SteadyClock::now();
      exec.RunOne(entries[pick(rngs_[w])], &tally);
      latency.Observe(MicrosSince(op_start));
    }
  };
  if (n == 1) {
    worker(0);  // no spawn: the determinism vehicle stays on this thread
  } else {
    std::vector<std::thread> spawned;
    spawned.reserve(n - 1);
    for (std::size_t w = 1; w < n; ++w) spawned.emplace_back(worker, w);
    worker(0);
    for (std::thread& t : spawned) t.join();
  }

  out.wall_seconds = std::chrono::duration<double>(SteadyClock::now() -
                                                   phase_start)
                         .count();
  // All worker frames folded into the pager at op scope exit; after the
  // join the global delta is the phase's aggregate traffic.
  report.pages = probe.Delta().total();

  // Phase boundary: fold the per-thread tallies into the merged report and
  // flush them into the registry (one histogram lock total per worker).
  for (std::size_t w = 0; w < n; ++w) {
    const PhaseReport& tally = tallies[w];
    for (const auto& [id, c] : tally.query_ops) report.query_ops[id] += c;
    for (const auto& [id, c] : tally.naive_query_ops) {
      report.naive_query_ops[id] += c;
    }
    report.insert_ops += tally.insert_ops;
    report.delete_ops += tally.delete_ops;
    report.noop_ops += tally.noop_ops;
    out.latency_us.MergeFrom(latencies[w]);
    metrics
        .CounterAt("pathix_serve_worker_ops_total",
                   {{"worker", std::to_string(w)}})
        .Increment(static_cast<double>(OpsForWorker(phase.ops, w, n)));
  }
  metrics.HistogramAt("pathix_serve_op_latency_us").MergeFrom(out.latency_us);
  metrics.CounterAt("pathix_serve_phases_total").Increment();

  out.epoch_swaps =
      static_cast<std::uint64_t>(epoch_counter.Value() - epochs_before + 0.5);
  out.ops_per_sec = out.wall_seconds > 0
                        ? static_cast<double>(phase.ops) / out.wall_seconds
                        : 0;
  return out;
}

}  // namespace pathix
