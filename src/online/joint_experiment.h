#pragma once

#include <string>
#include <vector>

#include "online/experiment.h"
#include "online/joint_controller.h"
#include "online/trace.h"

/// \file joint_experiment.h
/// \brief The multi-path online-selection experiment: replay one multi-path
/// trace several ways and compare page costs.
///
///  - online: cold database with every path registered, a
///    JointReconfigurationController attached — pays measured pages plus
///    the modeled joint transition charge of every switch, and its
///    selections respect the spec's storage budget;
///  - joint oracle: before each phase, the joint optimum (under the same
///    budget) for that phase's *true* per-path mixes is installed for free —
///    the per-phase lower bound the regret is measured against;
///  - statics: never-reconfigured assignments, installed up front: the
///    *joint* optimum of the ops-weighted average mixes and of each phase's
///    mixes (all budget-feasible by construction), plus the unbudgeted
///    per-path independent optima (physically identical to the greedy
///    merge, since the registry shares identical structures either way) as
///    the context baseline.
///
/// All runs replay the identical operation stream (see trace.h), so the
/// comparison is exact, not sampled. The acceptance envelope compares the
/// online run against the best *budget-feasible* static (the independent
/// baseline may exceed the budget and only bounds what unlimited storage
/// would buy).

namespace pathix {

/// A never-reconfigured assignment (one configuration per path) and its
/// replay.
struct JointStaticCandidate {
  std::string label;
  bool respects_budget = false;  ///< solved under the spec's budget
  std::vector<IndexConfiguration> configs;  ///< parallel to spec.paths
  ExperimentRun run;
};

struct JointExperimentReport {
  ExperimentRun online;
  std::vector<JointReconfigurationEvent> events;  ///< online run's switches

  /// The online run's metrics registry (obs/metrics.h), snapshotted twice:
  /// the baseline right after Populate() and the final state after the last
  /// phase with pager, part registry and controller counters mirrored in.
  /// Counter deltas between the two are exactly the replayed operations —
  /// the invariant the obs_smoke cross-check asserts.
  obs::MetricsSnapshot online_metrics_baseline;
  obs::MetricsSnapshot online_metrics;
  /// One snapshot per phase, taken right after the phase finished (counters
  /// mirrored in). DeltaSince between consecutive entries (or the baseline)
  /// is the phase's own window — the per-phase percentile tables of the
  /// decision ledger's phase_summary records.
  std::vector<obs::MetricsSnapshot> online_phase_metrics;

  ExperimentRun oracle;
  /// Per phase, per path: the joint oracle's installed configurations.
  std::vector<std::vector<IndexConfiguration>> oracle_configs;

  std::vector<JointStaticCandidate> statics;
  int best_static_joint = -1;  ///< cheapest budget-respecting static

  double best_static_joint_cost() const {
    return best_static_joint >= 0
               ? statics[static_cast<std::size_t>(best_static_joint)]
                     .run.total_cost()
               : 0;
  }
  /// online / best budget-feasible static (< 1: adapting beat every fixed
  /// budget-respecting choice).
  double online_vs_best_static_joint() const {
    const double base = best_static_joint_cost();
    return base > 0 ? online.total_cost() / base : 1.0;
  }
  /// online / joint oracle — the regret factor versus per-phase
  /// clairvoyance under the same budget.
  double online_vs_oracle() const {
    const double base = oracle.total_cost();
    return base > 0 ? online.total_cost() / base : 1.0;
  }
};

/// The controller options \p spec asks for: \p base with the spec's
/// candidate organizations, physical parameters and storage budget (the
/// budget binds the joint controller; the single-path one ignores it).
ControllerOptions TraceControllerOptions(const TraceSpec& spec,
                                         ControllerOptions base = {});

/// Replays \p spec's multi-path trace online / joint-oracle / static and
/// assembles the report. Deterministic for a fixed spec (including its
/// seed). Works for single-path specs too (the degenerate case), but the
/// single-path pipeline in experiment.h reports richer per-candidate
/// statics there.
///
/// \p buffer_pages > 0 serves every run through a buffer pool of that
/// capacity, enabled after Populate() so each replay starts from the same
/// cold pool (see RunOnlineExperiment).
Result<JointExperimentReport> RunJointOnlineExperiment(
    const TraceSpec& spec, const ControllerOptions& options,
    std::size_t buffer_pages = 0);

}  // namespace pathix
