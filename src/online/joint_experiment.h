#pragma once

#include <string>
#include <vector>

#include "core/optimizer.h"
#include "online/joint_controller.h"
#include "online/trace.h"

/// \file joint_experiment.h
/// \brief The online-selection experiment: replay one trace several ways
/// and compare page costs. A single-path trace is the one-path case of the
/// same experiment.
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
/// All runs replay the identical operation stream (ServeDriver at one
/// thread, serve/serve_driver.h), so the comparison is exact, not sampled.
/// The acceptance envelope compares the online run against the best
/// *budget-feasible* static (the independent baseline may exceed the budget
/// and only bounds what unlimited storage would buy).

namespace pathix {

/// One replay of the whole trace.
struct ExperimentRun {
  std::string label;
  std::vector<PhaseReport> phases;

  double measured_pages() const {
    double total = 0;
    for (const PhaseReport& p : phases) total += static_cast<double>(p.pages);
    return total;
  }
  double transition_pages() const {
    double total = 0;
    for (const PhaseReport& p : phases) total += p.transition_pages;
    return total;
  }
  /// Pager-measured transition I/O (actual drops + actual build I/O).
  double measured_transition_pages() const {
    double total = 0;
    for (const PhaseReport& p : phases) total += p.measured_transition_pages;
    return total;
  }
  /// Measured pages plus modeled transition charges.
  double total_cost() const { return measured_pages() + transition_pages(); }
  /// Measured pages plus *measured* transition I/O — the model-free total
  /// the modeled one is validated against.
  double measured_total_cost() const {
    return measured_pages() + measured_transition_pages();
  }
};

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
/// candidate organizations, physical parameters and storage budget.
ControllerOptions TraceControllerOptions(const TraceSpec& spec,
                                         ControllerOptions base = {});

/// Replays \p spec's trace online / joint-oracle / static and assembles the
/// report. Deterministic for a fixed spec (including its seed).
///
/// \p buffer_pages > 0 serves every run (online, oracle, statics) through a
/// buffer pool of that capacity, enabled after Populate() so each replay
/// starts from the same cold pool. 0 (the default) keeps the cost model's
/// cold-buffer assumption: every touch is a charged page access.
Result<JointExperimentReport> RunJointOnlineExperiment(
    const TraceSpec& spec, const ControllerOptions& options,
    std::size_t buffer_pages = 0);

/// The ops-weighted average of the trace's phase mixes for one path — the
/// load a one-shot offline advisor would be handed if the drift were
/// averaged away. The phase weight normalizes over the *whole* phase mix
/// (every path's queries plus the updates), so multi-path averages share
/// one normalization scale.
LoadDistribution TraceAverageMix(const TraceSpec& spec,
                                 std::size_t path_index);

/// Statistics exactly as the controller's scoped ANALYZE collects them on
/// first refresh (everything in every path's scope, shared (class,
/// attribute) pairs scanned once) on the live store of \p db, under the
/// spec's physical parameters and the pager's page size.
Catalog CollectWorkloadStatistics(const SimDatabase& db,
                                  const TraceSpec& spec);

/// The offline optimum of one path (the paper's O(n^2) DP, SelectDP, on the
/// full cost matrix) for \p load on statistics collected live from \p db,
/// under \p physical_params (the page size is always taken from the
/// database's pager). Exposed for tests comparing the online controller's
/// convergence point against the offline pick.
Result<OptimizeResult> OfflineOptimum(const SimDatabase& db, const Path& path,
                                      const std::vector<IndexOrg>& orgs,
                                      const LoadDistribution& load,
                                      const PhysicalParams& physical_params = {});

}  // namespace pathix
