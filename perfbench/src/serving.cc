// The serving workloads. Each generates a trace spec, builds a database from
// it, converges the joint controller (population, then the mix until the
// first install) and serves a timed closed loop: every worker issues its
// next op when the previous one returns.
//
// Layers are measured from outside only: each op is one timed call to
// TraceOpExecutor::RunOne, the online layer is timed by a forwarding
// observer around JointReconfigurationController::OnOperation, and the
// index, storage and advisor layers by isolated calls after the timed stage.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/workload_advisor.h"
#include "core/cost_matrix.h"
#include "datagen/generator.h"
#include "online/joint_controller.h"
#include "online/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pathix;

/// Seed of the population and of every converge stream: the set-up work
/// is the same for every --seed.
constexpr std::uint32_t kSetupSeed = 1994;

/// Shape of one serving workload.
struct Workload {
  const char* name;
  int persons;            ///< Person population; the other classes scale
  int workers;
  std::size_t pool_pages;  ///< buffer pool frames
  /// The one phase: its mix is served while converging and while timed;
  /// one timed block is its op count (per worker).
  const char* phase;
  /// Blocks whose pages make up pages_per_op with one worker (a fixed op
  /// prefix, so the count repeats exactly for a seed).
  std::uint64_t exact_blocks;
  /// Independent replicas per run: each sets up its own database (one
  /// set-up_s sample) and serves seconds / replicas with its own op
  /// streams. The controller's decisions depend on the op stream; averaging
  /// replicas keeps one trajectory from deciding a run.
  int replicas;
  /// Timed stages per replica. The timing figures are medians over every
  /// stage of the run, so a burst of host noise in one stage does not move
  /// them.
  int stages;
};

const Workload kWorkloads[] = {
    {"read_mostly", 10000, 3, 1u << 18,
     "phase steady 2000\n"
     "mix people Person   0.60 0.01 0.01\n"
     "mix fleet  Vehicle  0.20 0    0\n"
     "mix fleet  Division 0.18 0    0\n",
     0, 5, 3},
    {"write_churn", 50000, 1, 384,
     "phase churn 1000\n"
     "mix people Person   0.05 0.30 0.30\n"
     "mix fleet  Vehicle  0.03 0.15 0.15\n"
     "mix fleet  Division 0.02 0    0\n",
     10, 5, 3},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The two-path vehicle registry of vehicle_joint_trace.pix, scaled to
/// \p w.persons (its class ratios kept), with the workload's phase.
std::string SpecText(const Workload& w) {
  const int p = w.persons;
  const int v = p * 6 / 100;
  const int sub = p * 3 / 100;
  const int c = p * 8 / 1000;
  char head[2048];
  std::snprintf(head, sizeof(head),
                "class Person  %d %d 1 64\n"
                "class Vehicle %d %d 3 64\n"
                "class Bus   : Vehicle %d %d 2 64\n"
                "class Truck : Vehicle %d %d 2 64\n"
                "class Company  %d %d 3 64\n"
                "class Division %d %d 1 64\n"
                "ref Person  owns Vehicle  multi\n"
                "ref Vehicle man  Company  multi\n"
                "ref Company divs Division multi\n"
                "attr Division name string\n"
                "path people Person owns man divs name\n"
                "path fleet Vehicle man divs name\n"
                "orgs MX MIX NIX NONE\n"
                "populate Person   %d 0 1.0\n"
                "populate Vehicle  %d 0 2.0\n"
                "populate Bus      %d 0 2.0\n"
                "populate Truck    %d 0 2.0\n"
                "populate Company  %d 0 3.0\n"
                "populate Division %d %d 1.0\n"
                "trace_seed %u\n",
                p, p * 3 / 10, v, v * 5 / 6, sub, sub * 14 / 15, sub,
                sub * 14 / 15, c, c, c, c, p, v, sub, sub, c, c, c,
                kSetupSeed);
  return std::string(head) + w.phase;
}

// ----------------------------------------------------------------- tracing

/// Per-worker trace state of a traced stage; the forwarding observer finds
/// it through a thread-local pointer (the observer runs on the worker that
/// issued the op).
struct OpTrace {
  std::uint32_t worker = 0;
  /// Classify observer calls by the controller's counters (only race-free
  /// while this worker is the only one serving).
  bool classify = false;
  std::uint64_t op_id = 0;
  std::int64_t observer_ns = 0;  ///< observer time inside the current op
  bool naive = false;            ///< the current op was a naive query
  SpanLog spans;

  // Op time by kind; "self" is op time minus its observer span.
  std::uint64_t ops = 0;
  double op_ns = 0;
  double observer_total_ns = 0;
  std::uint64_t query_n = 0, insert_n = 0, delete_n = 0, naive_n = 0;
  double query_self_ns = 0, insert_self_ns = 0, delete_self_ns = 0;
  double naive_ns = 0;
  // Observer calls: all durations, plus (when classified) the calls that
  // ran a check or committed.
  std::vector<double> observe_ns;
  std::vector<double> check_ns;
  std::vector<double> commit_ns;
};

thread_local OpTrace* tls_trace = nullptr;

/// Forwards every event to the controller; in a traced stage it also times
/// the call as the op's child span.
class ForwardingObserver : public DbOpObserver {
 public:
  explicit ForwardingObserver(JointReconfigurationController* inner)
      : inner_(inner) {}

  void OnOperation(const DbOpEvent& ev) override {
    OpTrace* t = tls_trace;
    if (t == nullptr) {
      inner_->OnOperation(ev);
      return;
    }
    t->naive = ev.naive;
    const std::uint64_t checks = t->classify ? inner_->checks_run() : 0;
    const std::uint64_t events = t->classify ? inner_->events_committed() : 0;
    const std::int64_t start = NowNs();
    inner_->OnOperation(ev);
    const std::int64_t end = NowNs();
    const auto ns = static_cast<double>(end - start);
    t->observer_ns += end - start;
    t->spans.Record({kSpanObserver, kSpanOp, t->op_id, start, end, t->worker});
    if (t->classify && inner_->events_committed() != events) {
      t->commit_ns.push_back(ns);
    } else if (t->classify && inner_->checks_run() != checks) {
      t->check_ns.push_back(ns);
    } else {
      t->observe_ns.push_back(ns);
    }
  }

 private:
  JointReconfigurationController* inner_;
};

// ---------------------------------------------------------------- database

struct WorkerState {
  std::mt19937 rng;
  std::map<ClassId, std::vector<Oid>> shard;
};

/// The phase's op sampler (each worker owns a copy of the distribution).
struct PhaseMix {
  std::vector<TraceOpExecutor::MixEntry> entries;
  std::discrete_distribution<std::size_t> pick;
  std::uint64_t ops = 0;
};

PhaseMix MixOf(const TracePhase& phase) {
  PhaseMix m;
  m.entries = TraceOpExecutor::FlattenMix(phase);
  std::vector<double> weights;
  for (const auto& e : m.entries) weights.push_back(e.weight);
  m.pick = std::discrete_distribution<std::size_t>(weights.begin(),
                                                   weights.end());
  m.ops = phase.ops;
  return m;
}

std::uint64_t Executed(const PhaseReport& r) {
  std::uint64_t n = r.insert_ops + r.delete_ops + r.noop_ops;
  for (const auto& [id, c] : r.query_ops) n += c;
  for (const auto& [id, c] : r.naive_query_ops) n += c;
  return n;
}

/// A populated, converged database with its controller.
struct Instance {
  std::unique_ptr<SimDatabase> db;
  std::unique_ptr<JointReconfigurationController> controller;
  std::unique_ptr<ForwardingObserver> observer;
  std::vector<WorkerState> workers;
  double populate_s = 0;
  double setup_s = 0;
  std::uint64_t converge_ops = 0;
  PhaseReport converge_tally;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  /// Detaches the observer, then frees controller before database.
  ~Instance() { Reset(); }

  void Reset() {
    if (db != nullptr) db->SetObserver(nullptr);
    observer.reset();
    controller.reset();
    db.reset();
    workers.clear();
    malloc_trim(0);  // hand the freed database back, so replicas don't stack
    converge_ops = 0;
    converge_tally = PhaseReport{};
  }
};

/// The controller options the trace asks for. The spec's storage budget is
/// copied in here (pathix_serve's OptionsFor omits it).
ControllerOptions OptionsFor(const TraceSpec& spec) {
  ControllerOptions o;
  o.orgs = spec.options.orgs;
  o.physical_params = spec.catalog.params();
  o.storage_budget_bytes = spec.storage_budget_bytes;
  return o;
}

/// Result of one stage of serving.
struct StageResult {
  std::vector<double> worker_wall_s;
  std::vector<std::uint64_t> worker_ops;
  std::uint64_t ops = 0;
  std::uint64_t lost = 0;   ///< sampled ops no tally accounts for
  std::uint64_t noops = 0;  ///< deletes that failed or found no victim
  double wall_s = 0;
  // The exact pages window (the first exact_blocks blocks with one
  // worker; the whole stage otherwise).
  std::uint64_t window_ops = 0;
  double window_pages = 0;

  double ops_per_s() const { return wall_s > 0 ? ops / wall_s : 0; }
};

/// The timed stages of an untraced run, one figure of each per stage.
struct TimedStages {
  std::vector<double> ops_per_s, p50_us, p99_us, p999_us;
  std::uint64_t ops = 0;
  std::uint64_t min_samples = 0;  ///< the fewest samples behind a percentile
  std::uint64_t window_ops = 0;
  double window_pages = 0;

  /// Takes one stage's figures; \p window adds its pages window.
  void Add(const StageResult& r, LatencyRecorder* latency, bool window) {
    ops_per_s.push_back(r.ops_per_s());
    p50_us.push_back(latency->PercentileUs(0.50));
    p99_us.push_back(latency->PercentileUs(0.99));
    p999_us.push_back(latency->PercentileUs(0.999));
    const std::uint64_t n = latency->count();
    min_samples = ops == 0 ? n : std::min(min_samples, n);
    ops += r.ops;
    if (window) {
      window_ops += r.window_ops;
      window_pages += r.window_pages;
    }
  }
};

/// Pages the paper's metric counts so far: pager traffic (cold reads,
/// writes, buffer hits) plus the controller's measured transition I/O.
double PagesSoFar(const Instance& inst) {
  const AccessStats s = inst.db->pager().stats();
  return static_cast<double>(s.reads + s.writes + s.buffer_hits) +
         inst.controller->measured_transition_pages_charged();
}

/// Runs one op, timing it (and its observer span when traced).
inline void TimedOp(TraceOpExecutor* exec,
                    const TraceOpExecutor::MixEntry& entry,
                    PhaseReport* tally, LatencyRecorder* latency,
                    OpTrace* trace) {
  if (trace != nullptr) {
    ++trace->op_id;
    trace->observer_ns = 0;
    trace->naive = false;
  }
  const std::int64_t start = NowNs();
  exec->RunOne(entry, tally);
  const std::int64_t end = NowNs();
  const auto ns = static_cast<double>(end - start);
  if (latency != nullptr) latency->Add(end - start);
  if (trace == nullptr) return;
  trace->spans.Record({kSpanOp, kNoParent, trace->op_id, start, end,
                       trace->worker});
  const double self = ns - static_cast<double>(trace->observer_ns);
  ++trace->ops;
  trace->op_ns += ns;
  trace->observer_total_ns += static_cast<double>(trace->observer_ns);
  if (trace->naive) {
    ++trace->naive_n;
    trace->naive_ns += ns;
  }
  switch (entry.kind) {
    case DbOpKind::kQuery:
      if (!trace->naive) {
        ++trace->query_n;
        trace->query_self_ns += self;
      }
      break;
    case DbOpKind::kInsert:
      ++trace->insert_n;
      trace->insert_self_ns += self;
      break;
    case DbOpKind::kDelete:
      ++trace->delete_n;
      trace->delete_self_ns += self;
      break;
  }
}

class ServingRun {
 public:
  ServingRun(const Workload& w, const RunArgs& args, Report* report)
      : w_(w), args_(args), report_(report) {}

  void Run();

 private:
  /// Builds, populates and converges a fresh instance (timed: setup_s).
  bool Setup(int replica, OpTrace* trace);
  /// Serves whole blocks with \p workers workers until \p seconds passed
  /// and at least \p min_blocks blocks ran; the stage's latencies end up
  /// in stage_latency_.
  StageResult Serve(int workers, double seconds, std::uint64_t min_blocks,
                    std::vector<OpTrace>* traces);
  /// Indexed (QueryAny) vs naive answers on a seeded key sample; returns
  /// the number of mismatching or failed queries.
  std::uint64_t CheckAnswers(std::uint64_t* checked);
  /// The advisor's joint cost of the phase mix, on the spec's declared
  /// statistics.
  double AdvisedCost();
  std::vector<PathWorkload> PhaseWorkloads() const;
  /// The installed configuration of every path, rendered.
  std::string InstalledConfigs() const;

  void ReportEndToEnd(const TimedStages& timed,
                      const std::vector<double>& setups);
  void ReportLayers(const StageResult& base, const StageResult* single,
                    const StageResult& traced,
                    const std::vector<OpTrace>& traces, const OpTrace& setup,
                    const AccessStats& pager_delta,
                    const BufferPoolStats& pool_before,
                    std::uint64_t checks, std::uint64_t reconfigs,
                    std::uint64_t parts_built, double build_pages);
  void IsolatedLayerCalls(std::vector<SpanLog>* logs);
  /// The correctness pass after a timed stage: indexed answers against the
  /// naive evaluator, and the controller's status.
  void CheckReplica();
  /// The last correctness pass, plus the lost-op, no-op and controller
  /// verdicts.
  void Finish(std::uint64_t lost, std::uint64_t noops);

  const Workload& w_;
  const RunArgs& args_;
  Report* report_;
  TraceSpec spec_;
  PhaseMix mix_;
  Instance inst_;
  std::string controller_error_;
  // Allocated once per run (see LatencyRecorder).
  std::vector<LatencyRecorder> worker_latency_;
  LatencyRecorder stage_latency_;
};

bool ServingRun::Setup(int replica, OpTrace* trace) {
  inst_.Reset();  // the previous repetition's database is freed first
  const Clock::time_point start = Clock::now();
  Instance& in = inst_;
  in.db = std::make_unique<SimDatabase>(spec_.schema, spec_.catalog.params());
  for (const TracePath& tp : spec_.paths) {
    if (!in.db->RegisterPath(tp.id, tp.path).ok()) return false;
  }
  std::vector<ClassGenSpec> gen;
  for (const TracePopulate& p : spec_.populate) {
    gen.push_back({p.cls, p.count, p.distinct_values, p.nin});
  }
  std::vector<const Path*> paths;
  for (const TracePath& tp : spec_.paths) paths.push_back(&tp.path);
  const Clock::time_point pop_start = Clock::now();
  std::map<ClassId, std::vector<Oid>> live =
      PathDataGenerator(spec_.seed).Populate(in.db.get(), paths, gen);
  in.populate_s = SecondsSince(pop_start);

  // One timed op stream per (seed, replica, worker); pool shards striped as the
  // serve driver stripes them: oid i of a class goes to shard i % N.
  const auto n = static_cast<std::size_t>(w_.workers);
  for (std::size_t t = 0; t < n; ++t) {
    std::seed_seq seq{args_.seed, static_cast<std::uint32_t>(replica),
                      static_cast<std::uint32_t>(t)};
    in.workers.push_back({std::mt19937(seq), {}});
  }
  for (auto& [cls, oids] : live) {
    for (std::size_t i = 0; i < oids.size(); ++i) {
      in.workers[i % n].shard[cls].push_back(oids[i]);
    }
  }
  if (w_.pool_pages > 0) in.db->pager().EnableBuffer(w_.pool_pages);
  in.controller = std::make_unique<JointReconfigurationController>(
      in.db.get(), OptionsFor(spec_));
  in.observer = std::make_unique<ForwardingObserver>(in.controller.get());
  in.db->SetObserver(in.observer.get());

  // Converge: the mix on worker 0's shard until the first install, then on
  // until kQuietChecks drift checks in a row commit nothing, so a settling
  // switch right after the first install lands here, not in the timed stage.
  // Its stream depends on the replica only, not on --seed, so every run
  // does the same set-up work.
  constexpr std::uint64_t kConvergeCap = 200000;
  constexpr std::uint64_t kQuietChecks = 64;
  std::seed_seq converge_seq{kSetupSeed, static_cast<std::uint32_t>(replica)};
  std::mt19937 converge_rng(converge_seq);
  TraceOpExecutor exec(in.db.get(), &spec_, &converge_rng,
                       &in.workers[0].shard);
  PhaseMix mix = mix_;
  JointReconfigurationController& ctl = *in.controller;
  std::uint64_t events = 0;
  std::uint64_t checks_at_event = 0;
  tls_trace = trace;
  while ((events == 0 || ctl.checks_run() - checks_at_event < kQuietChecks) &&
         ctl.status().ok() && in.converge_ops < kConvergeCap) {
    TimedOp(&exec, mix.entries[mix.pick(converge_rng)], &in.converge_tally,
            nullptr, trace);
    ++in.converge_ops;
    if (ctl.events_committed() != events) {
      events = ctl.events_committed();
      checks_at_event = ctl.checks_run();
    }
  }
  tls_trace = nullptr;
  in.setup_s = SecondsSince(start);
  return in.controller->events_committed() > 0;
}

StageResult ServingRun::Serve(int workers, double seconds,
                              std::uint64_t min_blocks,
                              std::vector<OpTrace>* traces) {
  const auto n = static_cast<std::size_t>(workers);
  StageResult r;
  r.worker_wall_s.assign(n, 0);
  r.worker_ops.assign(n, 0);
  std::vector<PhaseReport> tallies(n);
  std::vector<std::uint64_t> sampled(n, 0);
  const double pages_before = PagesSoFar(inst_);
  const Clock::time_point stage_start = Clock::now();

  const auto worker = [&](std::size_t w) {
    WorkerState& ws = inst_.workers[w];
    TraceOpExecutor exec(inst_.db.get(), &spec_, &ws.rng, &ws.shard);
    PhaseMix mix = mix_;
    OpTrace* trace = traces != nullptr ? &(*traces)[w] : nullptr;
    tls_trace = trace;
    LatencyRecorder& lat = worker_latency_[w];
    lat.Clear();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t block = 0;; ++block) {
      if (block >= min_blocks && block > 0 && SecondsSince(start) >= seconds) {
        break;
      }
      for (std::uint64_t i = 0; i < mix.ops; ++i) {
        TimedOp(&exec, mix.entries[mix.pick(ws.rng)], &tallies[w], &lat,
                trace);
      }
      sampled[w] += mix.ops;
      if (n == 1 && block + 1 == min_blocks) {
        r.window_ops = sampled[0];
        r.window_pages = PagesSoFar(inst_) - pages_before;
      }
    }
    r.worker_wall_s[w] = SecondsSince(start);
    tls_trace = nullptr;
  };
  std::vector<std::thread> spawned;
  for (std::size_t w = 1; w < n; ++w) spawned.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : spawned) t.join();
  r.wall_s = SecondsSince(stage_start);

  stage_latency_.Clear();
  for (std::size_t w = 0; w < n; ++w) {
    r.worker_ops[w] = sampled[w];
    r.ops += sampled[w];
    if (Executed(tallies[w]) != sampled[w]) {
      r.lost += sampled[w] - std::min(sampled[w], Executed(tallies[w]));
    }
    r.noops += tallies[w].noop_ops;
    stage_latency_.Merge(worker_latency_[w]);
  }
  if (r.window_ops == 0) {
    r.window_ops = r.ops;
    r.window_pages = PagesSoFar(inst_) - pages_before;
  }
  return r;
}

std::uint64_t ServingRun::CheckAnswers(std::uint64_t* checked) {
  SimDatabase& db = *inst_.db;
  db.SetObserver(nullptr);  // the check's queries must not steer the loop
  std::set<std::pair<int, ClassId>> targets;
  for (const auto& e : mix_.entries) {
    if (e.kind == DbOpKind::kQuery) targets.insert({e.path_index, e.cls});
  }
  std::mt19937 rng(args_.seed * 2654435761u + 17);
  constexpr int kKeysPerTarget = 6;
  std::uint64_t bad = 0;
  for (const auto& [path_index, cls] : targets) {
    const TracePath& tp = spec_.paths[static_cast<std::size_t>(path_index)];
    int distinct = 1;
    for (const TracePopulate& p : spec_.populate) {
      distinct = std::max(distinct, p.distinct_values);
    }
    std::uniform_int_distribution<int> value(0, distinct - 1);
    for (int k = 0; k < kKeysPerTarget; ++k) {
      const Key key = Key::FromString(EndingValue(value(rng)));
      ++*checked;
      Result<SimDatabase::QueryOutcome> any = db.QueryAny(tp.id, key, cls);
      Result<std::vector<Oid>> naive = db.QueryNaive(tp.id, key, cls);
      if (!any.ok() || !naive.ok()) {
        ++bad;
        continue;
      }
      std::vector<Oid> a = any.value().oids;
      std::vector<Oid> b = naive.value();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) ++bad;
    }
  }
  db.SetObserver(inst_.observer.get());
  return bad;
}

std::string ServingRun::InstalledConfigs() const {
  std::string out;
  for (const TracePath& tp : spec_.paths) {
    out += (out.empty() ? "" : ", ") + tp.id + "=" +
           (inst_.db->has_indexes(tp.id)
                ? inst_.db->physical(tp.id).config().ToString(spec_.schema,
                                                              tp.path)
                : std::string("none"));
  }
  return out;
}

std::vector<PathWorkload> ServingRun::PhaseWorkloads() const {
  std::vector<PathWorkload> out;
  for (std::size_t p = 0; p < spec_.paths.size(); ++p) {
    out.push_back({spec_.paths[p].id, spec_.paths[p].path,
                   spec_.phases[0].mixes[p]});
  }
  return out;
}

double ServingRun::AdvisedCost() {
  AdvisorOptions options;
  options.orgs = spec_.options.orgs;
  JointOptions joint;
  joint.storage_budget_bytes = spec_.storage_budget_bytes;
  Result<WorkloadRecommendation> rec = AdviseWorkload(
      spec_.schema, spec_.catalog, PhaseWorkloads(), options, joint);
  return rec.ok() ? rec.value().total_cost_joint : -1;
}

void ServingRun::ReportEndToEnd(const TimedStages& timed,
                                const std::vector<double>& setups) {
  report_->Note("timed: " + std::to_string(timed.ops) + " ops in " +
                std::to_string(timed.ops_per_s.size()) +
                " stages; each timing figure is the median over the stages; "
                "each stage's percentiles are exact over at least " +
                std::to_string(timed.min_samples) + " samples (" +
                std::to_string(timed.min_samples / 1000) +
                " beyond p99.9); pages_per_op over " +
                std::to_string(timed.window_ops) + " ops; setup_s median of " +
                std::to_string(setups.size()) + " set-ups");
  std::string rates = "ops/s by stage:";
  for (const double r : timed.ops_per_s) {
    rates += " " + std::to_string(static_cast<long>(r));
  }
  report_->Note(rates);
  report_->Add("ops_per_s", Median(timed.ops_per_s), "1/s");
  report_->Add("p50_us", Median(timed.p50_us), "us");
  report_->Add("p99_us", Median(timed.p99_us), "us");
  report_->Add("p999_us", Median(timed.p999_us), "us");
  report_->Add("pages_per_op",
               timed.window_ops > 0 ? timed.window_pages / timed.window_ops : 0,
               "pages/op");
  report_->Add("advised_cost", AdvisedCost(), "pages");
  report_->Add("setup_s", Median(setups), "s");
}

double Mean(double sum, std::uint64_t n) {
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

void ServingRun::ReportLayers(const StageResult& base,
                              const StageResult* single,
                              const StageResult& traced,
                              const std::vector<OpTrace>& traces,
                              const OpTrace& setup,
                              const AccessStats& pager_delta,
                              const BufferPoolStats& pool_before,
                              std::uint64_t checks, std::uint64_t reconfigs,
                              std::uint64_t parts_built, double build_pages) {
  // serve
  double fastest = 0, slowest = 0;
  for (std::size_t w = 0; w < base.worker_ops.size(); ++w) {
    const double rate = base.worker_ops[w] / base.worker_wall_s[w];
    fastest = w == 0 ? rate : std::max(fastest, rate);
    slowest = w == 0 ? rate : std::min(slowest, rate);
  }
  report_->Add("serve.speedup",
               single != nullptr ? base.ops_per_s() / single->ops_per_s() : 1,
               "x");
  report_->Add("serve.worker_skew", slowest > 0 ? fastest / slowest : 0, "x");

  // exec: traced stage plus the traced converge (where naive scans live).
  OpTrace all;
  all.naive_n = setup.naive_n;
  all.naive_ns = setup.naive_ns;
  all.op_ns = setup.op_ns;
  double stage_op_ns = 0;
  std::vector<double> observe, check, commit;
  for (const OpTrace& t : traces) {
    stage_op_ns += t.op_ns;
    all.ops += t.ops;
    all.op_ns += t.op_ns;
    all.observer_total_ns += t.observer_total_ns;
    all.query_n += t.query_n;
    all.query_self_ns += t.query_self_ns;
    all.insert_n += t.insert_n;
    all.insert_self_ns += t.insert_self_ns;
    all.delete_n += t.delete_n;
    all.delete_self_ns += t.delete_self_ns;
    all.naive_n += t.naive_n;
    all.naive_ns += t.naive_ns;
    observe.insert(observe.end(), t.observe_ns.begin(), t.observe_ns.end());
    check.insert(check.end(), t.check_ns.begin(), t.check_ns.end());
    commit.insert(commit.end(), t.commit_ns.begin(), t.commit_ns.end());
  }
  if (traces.size() > 1) {
    // Several workers: reading the controller's counters around a call
    // would race with the worker running the check, so the calls that
    // checked are the longest ones, as many as the counters advanced by.
    std::sort(observe.begin(), observe.end(), std::greater<>());
    const std::size_t n_commit = std::min<std::size_t>(reconfigs,
                                                       observe.size());
    const std::size_t n_check =
        std::min<std::size_t>(checks - std::min(checks, reconfigs),
                              observe.size() - n_commit);
    commit.assign(observe.begin(),
                  observe.begin() + static_cast<std::ptrdiff_t>(n_commit));
    check.assign(observe.begin() + static_cast<std::ptrdiff_t>(n_commit),
                 observe.begin() +
                     static_cast<std::ptrdiff_t>(n_commit + n_check));
    observe.erase(observe.begin(),
                  observe.begin() +
                      static_cast<std::ptrdiff_t>(n_commit + n_check));
  }
  // The converge ran alone on worker 0, so its calls are classified
  // exactly; it holds the first install's commit on every workload.
  check.insert(check.end(), setup.check_ns.begin(), setup.check_ns.end());
  commit.insert(commit.end(), setup.commit_ns.begin(), setup.commit_ns.end());
  report_->Add("exec.query_us", Mean(all.query_self_ns, all.query_n) / 1e3,
               "us");
  report_->Add("exec.insert_us", Mean(all.insert_self_ns, all.insert_n) / 1e3,
               "us");
  report_->Add("exec.delete_us", Mean(all.delete_self_ns, all.delete_n) / 1e3,
               "us");
  report_->Add("exec.naive_query_ms", Mean(all.naive_ns, all.naive_n) / 1e6,
               "ms");
  report_->Add("exec.naive_share", all.op_ns > 0 ? all.naive_ns / all.op_ns : 0,
               "ratio");

  // index
  report_->Add("index.parts_built", static_cast<double>(parts_built), "count");
  report_->Add("index.build_pages", build_pages, "pages");

  // storage
  const double ops = static_cast<double>(std::max<std::uint64_t>(traced.ops, 1));
  const BufferPoolStats pool = inst_.db->pager().buffer_pool().GetStats();
  report_->Add("storage.reads_per_op", pager_delta.reads / ops, "pages/op");
  report_->Add("storage.writes_per_op", pager_delta.writes / ops, "pages/op");
  const double touches =
      static_cast<double>(pager_delta.reads + pager_delta.buffer_hits);
  report_->Add("storage.hit_rate",
               touches > 0 ? pager_delta.buffer_hits / touches : 0, "ratio");
  report_->Add("storage.evictions_per_kop",
               (pool.evictions - pool_before.evictions) / ops * 1e3, "1/kop");
  report_->Add("storage.writebacks_per_kop",
               (pool.writebacks - pool_before.writebacks) / ops * 1e3,
               "1/kop");

  // online
  report_->Add("online.observe_ns", MeanOf(observe), "ns");
  report_->Add("online.check_ms", MeanOf(check) / 1e6, "ms");
  report_->Add("online.commit_ms", MeanOf(commit) / 1e6, "ms");
  report_->Add("online.checks", static_cast<double>(checks), "count");
  report_->Add("online.reconfigs", static_cast<double>(reconfigs), "count");
  report_->Add("online.time_share",
               stage_op_ns > 0 ? all.observer_total_ns / stage_op_ns : 0,
               "ratio");
  report_->Add("datagen.populate_s", inst_.populate_s, "s");

  // tracing overhead: untraced vs traced throughput at the same workers.
  report_->Add("trace.untraced_ops_per_s", base.ops_per_s(), "1/s");
  report_->Add("trace.traced_ops_per_s", traced.ops_per_s(), "1/s");
  report_->Add("trace.overhead",
               traced.ops_per_s() > 0 ? base.ops_per_s() / traced.ops_per_s()
                                      : 0,
               "x");
}

void ServingRun::IsolatedLayerCalls(std::vector<SpanLog>* logs) {
  SimDatabase& db = *inst_.db;
  db.SetObserver(nullptr);
  logs->emplace_back();
  SpanLog* log = &logs->back();

  // index: Evaluate on a benchmark-owned copy of each installed
  // configuration, over the queried classes and a seeded key sample.
  std::mt19937 rng(args_.seed + 99);
  int distinct = 1;
  for (const TracePopulate& p : spec_.populate) {
    distinct = std::max(distinct, p.distinct_values);
  }
  std::vector<std::pair<std::shared_ptr<PhysicalConfiguration>, ClassId>>
      probes;
  for (const auto& e : mix_.entries) {
    if (e.kind != DbOpKind::kQuery) continue;
    const PathId& id = spec_.paths[static_cast<std::size_t>(e.path_index)].id;
    if (!db.has_indexes(id)) continue;
    probes.push_back(
        {std::make_shared<PhysicalConfiguration>(db.physical(id)), e.cls});
  }
  std::vector<Key> keys;
  std::uniform_int_distribution<int> value(0, distinct - 1);
  for (int i = 0; i < 64; ++i) keys.push_back(Key::FromString(EndingValue(value(rng))));
  double probe_ns = 0;
  if (!probes.empty()) {
    probe_ns = Median(TimeCalls(keys.size(), 0.3, log, kSpanProbe,
                                [&](std::size_t i) {
      auto& [config, cls] = probes[i % probes.size()];
      config->Evaluate(keys[i % keys.size()], cls, false);
    }));
  }
  report_->Add("index.probe_us", probe_ns / 1e3, "us");

  // storage: PeekRef over the live oids.
  std::vector<Oid> oids;
  for (const WorkerState& ws : inst_.workers) {
    for (const auto& [cls, v] : ws.shard) oids.insert(oids.end(), v.begin(), v.end());
  }
  std::shuffle(oids.begin(), oids.end(), rng);
  const std::size_t peek_batch = 256;
  std::uint64_t missing = 0;
  const double batch_ns = Median(TimeCalls(64, 0.3, log, kSpanPeek,
                                           [&](std::size_t i) {
    for (std::size_t k = 0; k < peek_batch; ++k) {
      const Oid oid = oids[(i * peek_batch + k) % oids.size()];
      if (db.store().PeekRef(oid) == nullptr) ++missing;
    }
  }));
  if (missing > 0) report_->Fail(missing, "PeekRef missed a live oid");
  report_->Add("storage.peek_ns", batch_ns / peek_batch, "ns");

  // advisor and core, on the phase mix over the spec's statistics.
  AdvisorOptions options;
  options.orgs = spec_.options.orgs;
  JointOptions joint;
  joint.storage_budget_bytes = spec_.storage_budget_bytes;
  const std::vector<PathWorkload> work = PhaseWorkloads();
  long explored = 0, pruned = 0;
  const double pool_ns = Median(TimeCalls(8, 0.15, log, kSpanPool,
                                          [&](std::size_t) {
    (void)CandidatePool::Build(spec_.schema, spec_.catalog, work, options);
  }));
  const Result<CandidatePool> pool =
      CandidatePool::Build(spec_.schema, spec_.catalog, work, options);
  double solve_ns = 0;
  if (pool.ok()) {
    solve_ns = Median(TimeCalls(8, 0.15, log, kSpanSolve, [&](std::size_t) {
      const Result<JointSelectionResult> sel =
          SelectJointConfiguration(pool.value(), joint);
      if (sel.ok()) {
        explored = sel.value().nodes_explored;
        pruned = sel.value().nodes_pruned;
      }
    }));
  }
  const double greedy_ns = Median(TimeCalls(8, 0.15, log, kSpanGreedy,
                                            [&](std::size_t) {
    (void)AdviseMultiplePaths(spec_.schema, spec_.catalog, work, options);
  }));
  std::vector<PathContext> ctxs;
  for (const PathWorkload& pw : work) {
    Result<PathContext> ctx =
        PathContext::Build(spec_.schema, pw.path, spec_.catalog, pw.load);
    if (ctx.ok()) ctxs.push_back(std::move(ctx).value());
  }
  double matrix_ns = 0;
  if (!ctxs.empty()) {
    matrix_ns = Median(TimeCalls(ctxs.size(), 0.15, log, kSpanMatrix,
                                 [&](std::size_t i) {
      (void)CostMatrix::Build(ctxs[i % ctxs.size()], options.orgs);
    }));
  }
  report_->Add("advisor.pool_ms", pool_ns / 1e6, "ms");
  report_->Add("advisor.solve_ms", solve_ns / 1e6, "ms");
  report_->Add("advisor.nodes_explored", static_cast<double>(explored),
               "count");
  report_->Add("advisor.nodes_pruned", static_cast<double>(pruned), "count");
  report_->Add("core.greedy_ms", greedy_ns / 1e6, "ms");
  report_->Add("core.matrix_us", matrix_ns / 1e3, "us");
  db.SetObserver(inst_.observer.get());
}

void ServingRun::Run() {
  Result<TraceSpec> parsed = ParseTraceSpec(SpecText(w_));
  if (!parsed.ok()) {
    report_->Fail(1, "generated spec: " + parsed.status().ToString());
    return;
  }
  spec_ = std::move(parsed).value();
  mix_ = MixOf(spec_.phases[0]);
  worker_latency_.resize(static_cast<std::size_t>(w_.workers));
  char line[256];
  std::snprintf(line, sizeof(line),
                "workload %s: %d Persons, %d worker(s), pool %zu frames, "
                "seed %u",
                w_.name, w_.persons, w_.workers, w_.pool_pages, args_.seed);
  report_->Note(line);

  // Converge ops count as attempted too: they are checked for loss and no-ops.
  std::uint64_t lost = 0, noops = 0;
  const auto converged = [&] {
    report_->Attempt(inst_.converge_ops);
    lost += inst_.converge_ops - Executed(inst_.converge_tally);
    noops += inst_.converge_tally.noop_ops;
  };
  if (!args_.trace) {
    std::vector<double> setups;
    std::uint64_t reconfigs = 0;
    TimedStages timed;
    const double stage_s = args_.seconds / (w_.replicas * w_.stages);
    for (int rep = 0; rep < w_.replicas; ++rep) {
      if (!Setup(rep, nullptr)) {
        report_->Fail(1, "the controller made no install while converging");
        return;
      }
      setups.push_back(inst_.setup_s);
      converged();
      const std::uint64_t events_before = inst_.controller->events_committed();
      for (int stage = 0; stage < w_.stages; ++stage) {
        // With one worker, pages_per_op covers the first stage's fixed op
        // prefix (exact for a seed); with several, every stage.
        StageResult r = Serve(w_.workers, stage_s,
                              stage == 0 ? w_.exact_blocks : 0, nullptr);
        report_->Attempt(r.ops);
        lost += r.lost;
        noops += r.noops;
        timed.Add(r, &stage_latency_, stage == 0 || w_.exact_blocks == 0);
      }
      reconfigs += inst_.controller->events_committed() - events_before;
      if (rep + 1 < w_.replicas) CheckReplica();
    }
    report_->Note("installed at the end: " + InstalledConfigs() + "; " +
                  std::to_string(reconfigs) +
                  " reconfigurations in the timed stages");
    ReportEndToEnd(timed, setups);
  } else {
    OpTrace setup_trace;
    setup_trace.classify = true;  // worker 0 converges alone
    if (!Setup(0, &setup_trace)) {
      report_->Fail(1, "the controller made no install while converging");
      return;
    }
    converged();
    const bool multi = w_.workers > 1;
    const double share = args_.seconds / (multi ? 3 : 2);
    const StageResult base = Serve(w_.workers, share, 0, nullptr);
    StageResult single;
    if (multi) single = Serve(1, share, 0, nullptr);
    std::vector<OpTrace> traces(static_cast<std::size_t>(w_.workers));
    for (std::size_t i = 0; i < traces.size(); ++i) {
      traces[i].worker = static_cast<std::uint32_t>(i);
      traces[i].classify = !multi;
    }
    SimDatabase& db = *inst_.db;
    const AccessStats pager_before = db.pager().stats();
    const BufferPoolStats pool_before = db.pager().buffer_pool().GetStats();
    const std::uint64_t checks_before = inst_.controller->checks_run();
    const std::uint64_t events_before = inst_.controller->events_committed();
    const std::uint64_t built_before = db.registry().parts_built();
    const double build_before =
        static_cast<double>(db.registry().cumulative_build_io().total());
    const StageResult traced = Serve(w_.workers, share, 0, &traces);
    report_->Attempt(base.ops + single.ops + traced.ops);
    lost += base.lost + single.lost + traced.lost;
    noops += base.noops + single.noops + traced.noops;
    ReportLayers(base, multi ? &single : nullptr, traced, traces, setup_trace,
                 db.pager().stats() - pager_before, pool_before,
                 inst_.controller->checks_run() - checks_before,
                 inst_.controller->events_committed() - events_before,
                 db.registry().parts_built() - built_before,
                 static_cast<double>(db.registry().cumulative_build_io().total()) -
                     build_before);
    std::vector<SpanLog> logs;
    logs.push_back(setup_trace.spans);
    for (const OpTrace& t : traces) logs.push_back(t.spans);
    IsolatedLayerCalls(&logs);
    const std::string file = args_.out_dir + "/spans_" + w_.name + ".json";
    if (!WriteSpans(file, logs)) report_->Note("could not write " + file);
  }
  Finish(lost, noops);
}

void ServingRun::CheckReplica() {
  std::uint64_t checked = 0;
  const std::uint64_t wrong = CheckAnswers(&checked);
  report_->Attempt(checked);
  if (wrong > 0) {
    report_->Fail(wrong, "indexed answers differ from the naive evaluator");
  }
  if (!inst_.controller->status().ok() && controller_error_.empty()) {
    controller_error_ = inst_.controller->status().ToString();
  }
}

void ServingRun::Finish(std::uint64_t lost, std::uint64_t noops) {
  CheckReplica();
  if (lost > 0) report_->Fail(lost, "ops were lost (executed + no-op != sampled)");
  // Neither workload empties a delete pool, so a no-op is a failed Delete.
  if (noops > 0) report_->Fail(noops, "deletes were no-ops (non-OK status)");
  if (!controller_error_.empty()) {
    // A controller error fails the whole run.
    report_->Fail(report_->attempted() - report_->failed(),
                  "controller: " + controller_error_);
  }
  inst_.Reset();
}

}  // namespace

bool IsServingWorkload(const std::string& name) {
  return FindWorkload(name) != nullptr;
}

void RunServing(const RunArgs& args, Report* report) {
  ServingRun run(*FindWorkload(args.workload), args, report);
  run.Run();
  if (!args.trace) report->Add("rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
