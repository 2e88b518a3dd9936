// pathix_online: online index selection on a live simulated database.
//
// Feed it a trace spec (see src/io/spec_parser.h for the format): an object
// population plus timed operation batches whose mix shifts per phase.
//
// The trace replays several ways: online, with a
// JointReconfigurationController re-solving the workload advisor's
// (optionally storage-budgeted) joint selection on drift and reconfiguring
// live; the per-phase joint oracle; and static joint / independent
// baselines. A single-path trace is the one-path case of the same pipeline.
//
//   $ ./examples/pathix_online ../examples/specs/vehicle_drift_trace.pix
//   $ ./examples/pathix_online ../examples/specs/vehicle_joint_trace.pix
//   $ ./examples/pathix_online     # runs the embedded demo trace
//
// Serving flags:
//   --buffer-pages=N     serve every run through a buffer pool of N frames
//                        (enabled after population, so each replay starts
//                        cold). Default 0: the paper's cold-buffer cost
//                        model, where every touch is a charged page access.
//                        Buffered runs are a hot/cold ablation: the
//                        acceptance envelope is printed but not enforced
//                        (the envelope is a cold-model contract).
//
// Observability flags (any mix, before or after the spec file):
//   --metrics            print an online-run metrics summary to stdout
//   --metrics-out=FILE   Prometheus text exposition of the online run's
//                        final metrics snapshot
//   --metrics-json=FILE  structured JSON: the same snapshot plus the
//                        controller's reconfiguration event log
//   --trace-out=FILE     span trace of the online run in Trace Event
//                        Format — loads in chrome://tracing / Perfetto
//   --decisions-out=FILE decision ledger (JSONL): one meta line, one
//                        structured record per drift check (workload
//                        snapshot, scored candidates with why-not margins,
//                        the hysteresis inequality modeled and measured,
//                        verdict), one phase_summary per phase — render
//                        with pathix_explain
//
// Whenever any of these is given, the online run's metric counter deltas
// (final snapshot minus the post-populate baseline) are reconciled exactly
// against the phase driver's per-phase operation tallies; a mismatch is an
// error (exit 1). A decision ledger is additionally reconciled against the
// controller: its commit verdicts must match the committed
// reconfiguration count.
//
// Exit status: 0 when the online run beats the best (budget-feasible)
// static configuration and stays within 2x of the oracle (the acceptance
// envelope), 1 on error, 2 when the envelope is missed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/decision_log.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/decision_record.h"
#include "online/event_json.h"
#include "online/joint_experiment.h"
#include "online/measured_validation.h"

namespace {

// Embedded demo distinct from the shipped vehicle_drift_trace.pix (which the
// smoke test replays): a document store whose traffic flips from reviewer
// searches to bulk ingest and back.
constexpr const char* kDemoSpec = R"(
class Submission 80000 8000 1
class Forum      400 400 1

ref Submission forum Forum
attr Forum name string

path Submission forum name
orgs MX MIX NIX NONE

populate Submission 3000 0 1.0
populate Forum      60 60 1.0
trace_seed 11

phase search 6000
mix Submission 0.95 0.03 0.02

phase ingest 6000
mix Submission 0.02 0.6 0.38

phase search2 6000
mix Submission 0.95 0.03 0.02
)";

// Each run's page totals both ways: with the *modeled* transition charges
// (the gating view) and with the pager-*measured* transition I/O (the
// model-free view). Runs without a controller moved nothing, so the two
// totals coincide there.
void PrintRun(const pathix::ExperimentRun& run) {
  std::printf("  %-22s", run.label.c_str());
  for (const pathix::PhaseReport& p : run.phases) {
    std::printf(" %10.0f", p.total_cost());
  }
  std::printf(" %12.0f %12.0f\n", run.total_cost(), run.measured_total_cost());
}

void PrintHeader(const pathix::TraceSpec& s) {
  std::printf("phases:");
  for (const pathix::TracePhase& phase : s.phases) {
    std::printf("  %s(%llu ops)", phase.name.c_str(),
                static_cast<unsigned long long>(phase.ops));
  }
  std::printf("\n\nper-phase page cost (measured pages + modeled transition "
              "charges):\n  %-22s", "run");
  for (const pathix::TracePhase& phase : s.phases) {
    std::printf(" %10s", phase.name.c_str());
  }
  std::printf(" %12s %12s\n", "modeled", "measured");
}

// The `measure on` extra: the whole trace replayed once more under the
// average-mix optimum, the analytic matrix compared against the pager's
// scoped tallies per phase and per path.
int PrintMeasuredVsModeled(const pathix::TraceSpec& s) {
  using namespace pathix;
  Result<MeasuredVsModeledReport> validation = RunMeasuredVsModeled(s);
  if (!validation.ok()) {
    std::cerr << "error: " << validation.status().ToString() << "\n";
    return 1;
  }
  const MeasuredVsModeledReport& v = validation.value();
  std::printf("\nmeasured vs modeled (fixed avg-mix optimum; pages/op):\n"
              "  %-12s %-10s %10s %10s %8s\n",
              "phase", "path", "measured", "modeled", "ratio");
  for (const MeasuredVsModeledCell& cell : v.cells) {
    std::printf("  %-12s %-10s %10.2f %10.2f %8.2f\n", cell.phase.c_str(),
                cell.path.c_str(), cell.measured_pages_per_op,
                cell.modeled_pages_per_op, cell.ratio());
  }
  for (const MeasuredVsModeledPhase& phase : v.phases) {
    std::printf("  %-12s %-10s %10.2f %10.2f %8.2f\n", phase.phase.c_str(),
                "(all)", phase.measured_pages_per_op,
                phase.modeled_pages_per_op, phase.ratio());
  }
  return 0;
}

// ------------------------------------------------------- observability glue

struct ObsFlags {
  std::string metrics_out;   ///< --metrics-out=FILE (Prometheus text)
  std::string metrics_json;  ///< --metrics-json=FILE (snapshot + events)
  std::string trace_out;     ///< --trace-out=FILE (Trace Event JSON)
  std::string decisions_out;  ///< --decisions-out=FILE (JSONL ledger)
  std::string spec_label;     ///< spec path (or the embedded-demo label)
  bool print_summary = false;  ///< --metrics

  bool any() const {
    return print_summary || !metrics_out.empty() || !metrics_json.empty() ||
           !trace_out.empty() || !decisions_out.empty();
  }
};

bool WriteFileOrWarn(const std::string& path, const std::string& body,
                     const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: could not write %s file %s\n", what,
                 path.c_str());
    return false;
  }
  std::fputs(body.c_str(), f);
  std::fclose(f);
  std::printf("(%s: %s)\n", what, path.c_str());
  return true;
}

// The acceptance invariant behind the exports: every successful operation
// the online run executed must appear, exactly once, as a metric counter
// increment. Counter deltas (final snapshot minus the post-populate
// baseline) are compared against the phase driver's own tallies.
bool CrossCheckOnlineMetrics(const pathix::TraceSpec& s,
                             const pathix::ExperimentRun& online,
                             const pathix::obs::MetricsSnapshot& baseline,
                             const pathix::obs::MetricsSnapshot& final_snap) {
  using namespace pathix;
  std::map<std::string, std::uint64_t> queries;
  std::map<std::string, std::uint64_t> naive_queries;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  for (const PhaseReport& p : online.phases) {
    for (const auto& [path, n] : p.query_ops) queries[path] += n;
    for (const auto& [path, n] : p.naive_query_ops) naive_queries[path] += n;
    inserts += p.insert_ops;
    deletes += p.delete_ops;
  }

  bool ok = true;
  std::uint64_t reconciled = 0;
  const auto expect = [&](const char* what, const std::string& path,
                          obs::MetricLabels labels, std::uint64_t expected) {
    const double delta = final_snap.Value("pathix_db_ops_total", labels) -
                         baseline.Value("pathix_db_ops_total", std::move(labels));
    if (delta != static_cast<double>(expected)) {
      std::fprintf(stderr,
                   "metrics cross-check FAILED: %s%s%s: counter delta %.0f != "
                   "replayed %llu\n",
                   what, path.empty() ? "" : " on ", path.c_str(), delta,
                   static_cast<unsigned long long>(expected));
      ok = false;
    }
    reconciled += expected;
  };

  for (const TracePath& tp : s.paths) {
    expect("indexed queries", tp.id,
           {{"kind", "query"}, {"path", tp.id}, {"naive", "false"}},
           queries[tp.id]);
    expect("naive queries", tp.id,
           {{"kind", "query"}, {"path", tp.id}, {"naive", "true"}},
           naive_queries[tp.id]);
  }
  expect("inserts", "", {{"kind", "insert"}}, inserts);
  expect("deletes", "", {{"kind", "delete"}}, deletes);
  if (ok) {
    std::printf("\nmetrics cross-check: ok (%llu ops reconciled against the "
                "registry)\n",
                static_cast<unsigned long long>(reconciled));
  }
  return ok;
}

void PrintHistogramLine(const char* indent, const std::string& label,
                        const pathix::obs::MetricSample* sample) {
  if (sample == nullptr || sample->histogram.count == 0) return;
  const pathix::obs::HistogramData& h = sample->histogram;
  std::printf("%s%-12s n=%-7llu p50=%-8.0f p90=%-8.0f p99=%-8.0f max=%.0f\n",
              indent, label.c_str(),
              static_cast<unsigned long long>(h.count), h.Percentile(0.50),
              h.Percentile(0.90), h.Percentile(0.99), h.max);
}

void PrintMetricsSummary(const pathix::TraceSpec& s,
                         const pathix::obs::MetricsSnapshot& m) {
  using namespace pathix;
  // Query counters are per-path series; sum them for the rollup line.
  const auto query_total = [&](const char* naive) {
    double q = 0;
    for (const TracePath& tp : s.paths) {
      q += m.Value("pathix_db_ops_total",
                   {{"kind", "query"}, {"path", tp.id}, {"naive", naive}});
    }
    return q;
  };
  std::printf("\nonline run metrics (obs registry, final snapshot):\n");
  std::printf("  db ops: query=%.0f (naive %.0f) insert=%.0f delete=%.0f\n",
              query_total("false"), query_total("true"),
              m.Value("pathix_db_ops_total", {{"kind", "insert"}}),
              m.Value("pathix_db_ops_total", {{"kind", "delete"}}));
  std::printf("  query latency by path (us):\n");
  for (const TracePath& tp : s.paths) {
    PrintHistogramLine("    ", tp.id,
                       m.Find("pathix_db_op_latency_us",
                              {{"kind", "query"}, {"path", tp.id}}));
  }
  std::printf("  update latency (us):\n");
  PrintHistogramLine("    ", "insert",
                     m.Find("pathix_db_op_latency_us", {{"kind", "insert"}}));
  PrintHistogramLine("    ", "delete",
                     m.Find("pathix_db_op_latency_us", {{"kind", "delete"}}));
  std::printf(
      "  pager: reads=%.0f writes=%.0f buffer_hits=%.0f allocated=%.0f\n",
      m.Value("pathix_pager_io_total", {{"io", "read"}}),
      m.Value("pathix_pager_io_total", {{"io", "write"}}),
      m.Value("pathix_pager_buffer_hits_total"),
      m.Value("pathix_pager_allocated_pages"));
  std::printf(
      "  parts: built=%.0f adopted=%.0f released=%.0f live=%.0f "
      "(build io: %.0f read / %.0f write)\n",
      m.Value("pathix_parts_built_total"), m.Value("pathix_parts_adopted_total"),
      m.Value("pathix_parts_released_total"), m.Value("pathix_parts_live"),
      m.Value("pathix_parts_build_io_total", {{"io", "read"}}),
      m.Value("pathix_parts_build_io_total", {{"io", "write"}}));
  std::printf(
      "  controller: checks=%.0f reconfigurations=%.0f events_evicted=%.0f "
      "transition pages modeled=%.0f measured=%.0f\n",
      m.Value("pathix_controller_checks_total"),
      m.Value("pathix_controller_reconfigurations_total"),
      m.Value("pathix_controller_events_evicted_total"),
      m.Value("pathix_controller_transition_pages_total",
              {{"kind", "modeled"}}),
      m.Value("pathix_controller_transition_pages_total",
              {{"kind", "measured"}}));
}

// ------------------------------------------------------- decision ledger

// One labeled percentile row of a phase_summary table, from the windowed
// (DeltaSince) histogram sample. Rows with no observations are skipped.
void AppendPhaseStat(const pathix::obs::MetricsSnapshot& window,
                     const char* family, pathix::obs::MetricLabels labels,
                     const std::string& label,
                     std::vector<pathix::LedgerPhaseStat>* rows) {
  const pathix::obs::MetricSample* sample =
      window.Find(family, std::move(labels));
  if (sample == nullptr || sample->histogram.count == 0) return;
  const pathix::obs::HistogramData& h = sample->histogram;
  pathix::LedgerPhaseStat row;
  row.label = label;
  row.count = h.count;
  row.p50 = h.Percentile(0.50);
  row.p90 = h.Percentile(0.90);
  row.p99 = h.Percentile(0.99);
  row.max = h.max;
  rows->push_back(std::move(row));
}

/// Assembles and writes the JSONL decision ledger: the meta line, every
/// phase's decision records (already phase-stamped by the driver), and a
/// phase_summary per phase whose percentile tables come from the windowed
/// snapshot deltas. Cross-checks the ledger's commit verdicts against the
/// controller's committed reconfiguration count; returns false on mismatch
/// or an unwritable file.
bool EmitDecisionLedger(const pathix::TraceSpec& s,
                        const pathix::JointExperimentReport& r,
                        const ObsFlags& flags) {
  using namespace pathix;
  const ControllerOptions opts;  // what the runners were handed (defaults)

  LedgerMeta meta;
  meta.mode = "joint";
  meta.spec = flags.spec_label;
  meta.theta = opts.hysteresis;
  meta.horizon_ops = opts.horizon_ops;
  meta.half_life_ops = opts.half_life_ops;
  meta.warmup_ops = opts.warmup_ops;
  meta.check_interval_ops = opts.check_interval_ops;
  meta.storage_budget_bytes =
      s.has_budget ? s.storage_budget_bytes
                   : std::numeric_limits<double>::infinity();
  meta.decision_top_k = opts.decision_top_k;
  for (const TracePath& tp : s.paths) {
    meta.paths.push_back(tp.id + ": " + tp.path.ToString(s.schema));
  }
  for (const TracePhase& phase : s.phases) meta.phases.push_back(phase.name);

  obs::DecisionLog log;
  WriteLedgerMeta(&log, meta);

  std::uint64_t commit_verdicts = 0;
  std::uint64_t records_retained = 0;
  std::uint64_t records_captured = 0;
  int reconfigurations = 0;
  for (std::size_t i = 0; i < r.online.phases.size(); ++i) {
    const PhaseReport& p = r.online.phases[i];
    for (const DecisionRecord& rec : p.decisions) {
      WriteDecisionRecord(&log, rec);
      if (rec.verdict == "install" || rec.verdict == "switch") {
        ++commit_verdicts;
      }
    }
    records_retained += p.decisions.size();
    records_captured += p.decisions_captured;
    reconfigurations += p.reconfigurations;

    const obs::MetricsSnapshot window = r.online_phase_metrics[i].DeltaSince(
        i == 0 ? r.online_metrics_baseline : r.online_phase_metrics[i - 1]);
    LedgerPhaseSummary summary;
    summary.phase = p.name;
    summary.ops = p.ops;
    summary.pages = p.pages;
    summary.reconfigurations = p.reconfigurations;
    summary.decisions = p.decisions_captured;
    summary.transition_pages = p.transition_pages;
    summary.measured_transition_pages = p.measured_transition_pages;
    for (const TracePath& tp : s.paths) {
      AppendPhaseStat(window, "pathix_db_op_latency_us",
                      {{"kind", "query"}, {"path", tp.id}}, "query:" + tp.id,
                      &summary.latency_us);
      AppendPhaseStat(window, "pathix_db_op_pages",
                      {{"kind", "query"}, {"path", tp.id}}, "query:" + tp.id,
                      &summary.op_pages);
    }
    for (const char* kind : {"insert", "delete"}) {
      AppendPhaseStat(window, "pathix_db_op_latency_us", {{"kind", kind}},
                      kind, &summary.latency_us);
      AppendPhaseStat(window, "pathix_db_op_pages", {{"kind", kind}}, kind,
                      &summary.op_pages);
    }
    AppendPhaseStat(window, "pathix_advisor_resolve_duration_us",
                    {{"controller", "joint"}}, "re_solve",
                    &summary.latency_us);
    WriteLedgerPhaseSummary(&log, summary);
  }

  // The ledger must tell the same story as the controller: one commit
  // verdict per committed reconfiguration. Only checkable when the bounded
  // ledger evicted nothing (every captured record is still retained).
  if (records_retained == records_captured &&
      commit_verdicts != static_cast<std::uint64_t>(reconfigurations)) {
    std::fprintf(stderr,
                 "decision ledger cross-check FAILED: %llu commit verdicts "
                 "!= %d committed reconfigurations\n",
                 static_cast<unsigned long long>(commit_verdicts),
                 reconfigurations);
    return false;
  }
  std::printf("decision ledger cross-check: ok (%llu commit verdicts == %d "
              "reconfigurations; %llu records)\n",
              static_cast<unsigned long long>(commit_verdicts),
              reconfigurations,
              static_cast<unsigned long long>(log.records()));
  return WriteFileOrWarn(flags.decisions_out, log.str(), "decisions");
}

/// Everything the observability flags ask for. Returns false on
/// cross-check failure or unwritable output file.
bool EmitObservability(const pathix::TraceSpec& s,
                       const pathix::JointExperimentReport& r,
                       const ObsFlags& flags) {
  using namespace pathix;
  if (!flags.any()) return true;
  if (!CrossCheckOnlineMetrics(s, r.online, r.online_metrics_baseline,
                               r.online_metrics)) {
    return false;
  }
  if (flags.print_summary) PrintMetricsSummary(s, r.online_metrics);
  if (!flags.metrics_out.empty() &&
      !WriteFileOrWarn(flags.metrics_out,
                       obs::ToPrometheusText(r.online_metrics), "metrics")) {
    return false;
  }
  if (!flags.metrics_json.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("mode").Value("joint");
    w.Key("metrics");
    obs::WriteMetricsJson(&w, r.online_metrics);
    w.Key("events");
    WriteEventLog(&w, r.events);
    w.EndObject();
    if (!WriteFileOrWarn(flags.metrics_json, w.str() + "\n", "metrics-json")) {
      return false;
    }
  }
  if (!flags.decisions_out.empty() &&
      !EmitDecisionLedger(s, r, flags)) {
    return false;
  }
  if (!flags.trace_out.empty()) {
    const obs::Tracer& tracer = obs::GlobalTracer();
    std::printf("(trace spans recorded: %llu events)\n",
                static_cast<unsigned long long>(tracer.size()));
    if (!WriteFileOrWarn(flags.trace_out, tracer.ToTraceEventJson() + "\n",
                         "trace")) {
      return false;
    }
  }
  return true;
}

int RunJoint(const pathix::TraceSpec& s, const ObsFlags& flags,
             std::size_t buffer_pages) {
  using namespace pathix;
  Result<JointExperimentReport> result =
      RunJointOnlineExperiment(s, ControllerOptions{}, buffer_pages);
  if (!result.ok()) {
    std::cerr << "error: " << result.status().ToString() << "\n";
    return 1;
  }
  const JointExperimentReport& r = result.value();

  std::cout << "=== Joint online index selection over " << s.paths.size()
            << (s.paths.size() == 1 ? " path" : " paths") << " ===\n\n";
  for (const TracePath& tp : s.paths) {
    std::cout << "  " << tp.id << " : " << tp.path.ToString(s.schema) << "\n";
  }
  if (s.has_budget) {
    std::printf("  storage budget: %.0f bytes\n", s.storage_budget_bytes);
  }
  std::cout << "\n";
  PrintHeader(s);
  PrintRun(r.online);
  PrintRun(r.oracle);
  for (const JointStaticCandidate& c : r.statics) PrintRun(c.run);

  std::cout << "\njoint oracle per-phase assignments:\n";
  for (std::size_t i = 0; i < r.oracle_configs.size(); ++i) {
    std::cout << "  " << s.phases[i].name << ":\n";
    for (std::size_t p = 0; p < s.paths.size(); ++p) {
      std::cout << "    " << s.paths[p].id << " : "
                << r.oracle_configs[i][p].ToString(s.schema, s.paths[p].path)
                << "\n";
    }
  }

  std::cout << "\nonline joint reconfiguration points (" << r.events.size()
            << "):\n";
  for (const JointReconfigurationEvent& ev : r.events) {
    std::cout << "  op " << ev.op_index << ": "
              << (ev.initial ? "install" : "switch");
    if (!ev.initial) {
      std::printf(" (predicted savings %.3f pages/op, transition %.0f pages)",
                  ev.predicted_savings_per_op, ev.transition.total());
    }
    std::cout << "\n";
    for (const JointReconfigurationEvent::PathChange& change : ev.changes) {
      const Path* path = nullptr;
      for (const TracePath& tp : s.paths) {
        if (tp.id == change.path) path = &tp.path;
      }
      std::cout << "    " << change.path << " -> "
                << change.to.ToString(s.schema, *path) << "\n";
    }
  }

  const int best = r.best_static_joint;
  std::printf(
      "\ntotal cost, online joint      : %.0f  (%.0f measured + %.0f modeled "
      "transition; %.0f measured transition)\n"
      "total cost, joint oracle      : %.0f  (per-phase joint optimum, free "
      "switches)\n"
      "total cost, best static joint : %.0f  (%s)\n"
      "online / best static joint    : %.3f  %s\n"
      "online / oracle (regret)      : %.3f  %s\n",
      r.online.total_cost(), r.online.measured_pages(),
      r.online.transition_pages(), r.online.measured_transition_pages(),
      r.oracle.total_cost(), r.best_static_joint_cost(),
      best >= 0 ? r.statics[static_cast<std::size_t>(best)].label.c_str()
                : "n/a",
      r.online_vs_best_static_joint(),
      r.online_vs_best_static_joint() < 1
          ? "(adapting beat every budget-feasible fixed choice)"
          : "(a static choice was at least as good)",
      r.online_vs_oracle(),
      r.online_vs_oracle() <= 2 ? "(within the 2x envelope)"
                                : "(outside the 2x envelope)");

  if (!EmitObservability(s, r, flags)) return 1;
  if (s.measure && PrintMeasuredVsModeled(s) != 0) return 1;

  // The acceptance envelope is a property of the paper's cold cost model:
  // a warm pool shrinks every measured total while the modeled transition
  // charges stay fixed, so buffered (ablation) runs report the ratios
  // without gating the exit code on them.
  const bool ok =
      buffer_pages > 0 ||
      (r.online_vs_best_static_joint() < 1 && r.online_vs_oracle() <= 2);
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pathix;

  ObsFlags flags;
  std::string spec_file;
  std::size_t buffer_pages = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag_value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--metrics") {
      flags.print_summary = true;
    } else if (const char* prom_file = flag_value("--metrics-out=")) {
      flags.metrics_out = prom_file;
    } else if (const char* json_file = flag_value("--metrics-json=")) {
      flags.metrics_json = json_file;
    } else if (const char* trace_file = flag_value("--trace-out=")) {
      flags.trace_out = trace_file;
    } else if (const char* ledger_file = flag_value("--decisions-out=")) {
      flags.decisions_out = ledger_file;
    } else if (const char* pages = flag_value("--buffer-pages=")) {
      const long parsed = std::atol(pages);
      if (parsed < 0) {
        std::cerr << "error: --buffer-pages wants a non-negative integer\n";
        return 1;
      }
      buffer_pages = static_cast<std::size_t>(parsed);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown flag " << arg
                << " (known: --buffer-pages=N, --metrics, --metrics-out=FILE, "
                   "--metrics-json=FILE, --trace-out=FILE, "
                   "--decisions-out=FILE)\n";
      return 1;
    } else if (spec_file.empty()) {
      spec_file = arg;
    } else {
      std::cerr << "error: more than one spec file given (" << spec_file
                << ", " << arg << ")\n";
      return 1;
    }
  }
  // Span creation is gated per-span at the tracer, so enabling before the
  // experiment captures every controller/registry span of all runs.
  if (!flags.trace_out.empty()) obs::GlobalTracer().SetEnabled(true);

  Result<TraceSpec> spec = !spec_file.empty() ? ParseTraceSpecFile(spec_file)
                                              : ParseTraceSpec(kDemoSpec);
  if (!spec.ok()) {
    std::cerr << "error: " << spec.status().ToString() << "\n";
    return 1;
  }
  const TraceSpec& s = spec.value();
  flags.spec_label = spec_file.empty() ? "<embedded demo>" : spec_file;
  if (spec_file.empty()) {
    std::cout << "(no spec file given; using the embedded demo — pass a "
                 "trace .pix file, e.g. examples/specs/"
                 "vehicle_drift_trace.pix or the multi-path "
                 "vehicle_joint_trace.pix)\n\n";
  }
  return RunJoint(s, flags, buffer_pages);
}
