// Online index selection: how the controller's advantage over static
// configurations depends on (a) the drift rate — how often the workload
// flips between a query-heavy and an update-heavy mix — and (b) the
// hysteresis factor, which trades adaptation speed against thrashing.
// Self-timed; every experiment replays the identical operation stream
// online / per-phase-oracle / static through the joint pipeline (see
// online/joint_experiment.h) — one path, no storage budget.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "online/joint_experiment.h"

namespace {

using namespace pathix;

/// A document-store trace: Submission -> Forum, flipping between reviewer
/// search and bulk ingest every `phase_ops` operations.
TraceSpec MakeFlippingTrace(std::uint64_t phase_ops, int flips) {
  TraceSpec spec;
  const ClassId submission = spec.schema.AddClass("Submission").value();
  const ClassId forum = spec.schema.AddClass("Forum").value();
  CheckOk(spec.schema.AddReferenceAttribute(submission, "forum", forum));
  CheckOk(spec.schema.AddAtomicAttribute(forum, "name", AtomicType::kString));
  TracePath tp;
  tp.id = "default";
  tp.path = Path::Create(spec.schema, submission, {"forum", "name"}).value();
  spec.paths.push_back(std::move(tp));
  spec.options.orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX,
                       IndexOrg::kNone};
  spec.seed = 4242;
  spec.populate.push_back(TracePopulate{submission, 2000, 1, 1.0});
  spec.populate.push_back(TracePopulate{forum, 50, 50, 1.0});
  for (int i = 0; i < flips; ++i) {
    TracePhase phase;
    phase.ops = phase_ops;
    LoadDistribution mix;
    if (i % 2 == 0) {
      phase.name = "search" + std::to_string(i);
      mix.Set(submission, 0.95, 0.03, 0.02);
    } else {
      phase.name = "ingest" + std::to_string(i);
      mix.Set(submission, 0.02, 0.6, 0.38);
    }
    phase.SetSinglePathMix(mix);
    spec.phases.push_back(std::move(phase));
  }
  return spec;
}

int CountSwitches(const JointExperimentReport& r) {
  int switches = 0;
  for (const JointReconfigurationEvent& ev : r.events) {
    if (!ev.initial) ++switches;
  }
  return switches;
}

}  // namespace

int main() {
  pathix_bench::BenchJson json("bench_online");

  // ---------------------------------------------------- drift-rate sweep
  // Fixed total work (8192 ops), shifting cut into ever shorter phases.
  std::printf(
      "=== drift-rate sweep: 8192 ops, phase length vs adaptivity ===\n\n"
      "  phase ops   switches   online      oracle      best static   "
      "online/static   online/oracle\n");
  for (const std::uint64_t phase_ops : {4096u, 2048u, 1024u, 512u}) {
    const int flips = static_cast<int>(8192 / phase_ops);
    const TraceSpec spec = MakeFlippingTrace(phase_ops, flips);
    const JointExperimentReport r =
        RunJointOnlineExperiment(spec, ControllerOptions{}).value();
    std::printf("  %-11llu %-10d %-11.0f %-11.0f %-13.0f %-15.3f %.3f\n",
                static_cast<unsigned long long>(phase_ops), CountSwitches(r),
                r.online.total_cost(), r.oracle.total_cost(),
                r.best_static_joint_cost(), r.online_vs_best_static_joint(),
                r.online_vs_oracle());
    const std::string prefix = "phase" + std::to_string(phase_ops);
    json.Add(prefix + "_online_cost", r.online.total_cost());
    json.Add(prefix + "_oracle_cost", r.oracle.total_cost());
    json.Add(prefix + "_best_static_cost", r.best_static_joint_cost());
    json.Add(prefix + "_switches", CountSwitches(r));
  }
  std::printf(
      "\n(long phases amortize adaptation: online beats every static pick; "
      "as phases approach\n the monitor's half-life the controller rightly "
      "stops chasing the drift)\n\n");

  // ---------------------------------------------------- hysteresis sweep
  std::printf(
      "=== hysteresis sweep: 4 x 2048-op phases, theta vs thrashing ===\n\n"
      "  theta     switches   transition pages   online total   "
      "online/oracle\n");
  const TraceSpec spec = MakeFlippingTrace(2048, 4);
  for (const double theta : {1.0, 1.5, 4.0, 16.0, 1e9}) {
    ControllerOptions options;
    options.hysteresis = theta;
    const JointExperimentReport r =
        RunJointOnlineExperiment(spec, options).value();
    std::printf("  %-9.3g %-10d %-18.0f %-14.0f %.3f\n", theta,
                CountSwitches(r), r.online.transition_pages(),
                r.online.total_cost(), r.online_vs_oracle());
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "theta%g", theta);
    json.Add(std::string(prefix) + "_switches", CountSwitches(r));
    json.Add(std::string(prefix) + "_online_cost", r.online.total_cost());
  }
  std::printf(
      "\n(theta -> infinity pins the initial configuration — zero transition "
      "cost, maximal\n regret; small theta adapts eagerly and pays for it "
      "in transitions)\n");

  json.Write();
  return 0;
}
