#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "advisor/joint_optimizer.h"
#include "exec/analyze.h"
#include "exec/database.h"
#include "online/decision_record.h"
#include "online/transition_cost.h"
#include "online/workload_monitor.h"

/// \file joint_controller.h
/// \brief Online index selection: one controller watching *all* registered
/// paths of a SimDatabase, estimating the drifting load (WorkloadMonitor),
/// periodically re-solving the workload advisor's joint, storage-budgeted
/// selection problem and — with hysteresis, so noise cannot thrash the
/// physical layer — rebuilding the index configuration through
/// SimDatabase::ReconfigureIndexes. Inspired by production advisors (AIM,
/// PAPERS.md): observe, act incrementally, never flap.
///
/// Per-check costs and transition prices use the same shared-part
/// accounting the physical layer implements (PhysicalPartRegistry): an
/// index shared between paths is maintained once, stored once, and free to
/// "build" for a path when another path already holds it. With exactly one
/// registered path and no budget the re-solve is the paper's single-path
/// problem (Section 5's recombination over the cost matrix), and the
/// controller is the paper's selection run online;
/// tests/online/testdata/vehicle_drift_joint.golden pins that case.

namespace pathix {

/// Tuning knobs of the control loops. The defaults favour stability: a
/// reconfiguration must pay for itself within the horizon with 50% margin.
struct ControllerOptions {
  /// Candidate organizations per subpath (matrix columns).
  std::vector<IndexOrg> orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX};
  /// Half-life of the monitor's decayed counts, in operations.
  double half_life_ops = 512;
  /// Operations between drift checks (the base interval the adaptive
  /// cadence backs off from).
  std::uint64_t check_interval_ops = 256;
  /// While consecutive checks commit no reconfiguration the interval is
  /// multiplied by this factor (1 disables the backoff); a committed
  /// reconfiguration resets it to the base. Cuts solver work on stationary
  /// stretches without giving up drift tracking.
  double cadence_backoff = 2.0;
  /// Cap: the interval never exceeds check_interval_ops * this factor.
  double cadence_max_factor = 4.0;
  /// Operations observed before the first drift check may run. The initial
  /// install is hysteresis-gated like any other transition, against the
  /// *measured* naive-scan cost of the status quo
  /// (WorkloadMonitor::MeasuredNaiveQueryPagesPerOp).
  std::uint64_t warmup_ops = 256;
  /// Amortization horizon H: a switch must win within H future operations.
  double horizon_ops = 4096;
  /// Hysteresis factor theta >= 1: reconfigure only when
  ///   (current_cost - best_cost) * horizon_ops > theta * transition_cost.
  double hysteresis = 1.5;
  /// A class's statistics are re-collected (scoped ANALYZE) when its live
  /// object count moved by more than this fraction since its last
  /// collection; untouched classes keep their entries and cost no store
  /// pass. Between refreshes the matrix cache serves drift checks without
  /// model calls.
  double stats_refresh_fraction = 0.1;
  /// Storage budget for the selection, in bytes: caps the total bytes of
  /// the distinct physical indexes the solver may choose (infinity
  /// disables the constraint).
  double storage_budget_bytes = std::numeric_limits<double>::infinity();
  /// Ring-buffer bound on the retained reconfiguration event log (0 keeps
  /// everything). A long-running controller keeps the newest max_event_log
  /// events; evictions are counted (events_evicted(), mirrored as the
  /// pathix_controller_events_evicted_total metric) so consumers can tell a
  /// truncated log from a short one.
  std::size_t max_event_log = 1024;
  /// Scored candidate alternatives captured into each decision record
  /// (online/decision_record.h). 0 disables candidate capture — the record
  /// itself (workload snapshot, search stats, hysteresis, verdict) is
  /// always kept.
  int decision_top_k = 5;
  /// Ring-buffer bound on the retained decision ledger (0 keeps
  /// everything). Decisions accrue one per drift check — far faster than
  /// committed events — so the default bound is what keeps a long-running
  /// controller's memory flat.
  std::size_t max_decision_log = 4096;
  /// Physical parameters (oid/key lengths etc.) the cost model solves
  /// against; page_size is always taken from the database's pager. Pass the
  /// spec's catalog params when the spec overrides the defaults.
  PhysicalParams physical_params;
};

/// \brief The adaptive drift-check schedule: checks start at the base
/// interval, back off multiplicatively while they commit nothing, and snap
/// back on a committed reconfiguration.
class DriftCadence {
 public:
  void Init(const ControllerOptions& options) {
    base_ = std::max<std::uint64_t>(1, options.check_interval_ops);
    max_interval_ = std::max<std::uint64_t>(
        base_, static_cast<std::uint64_t>(
                   static_cast<double>(base_) *
                   std::max(1.0, options.cadence_max_factor)));
    backoff_ = std::max(1.0, options.cadence_backoff);
    interval_ = base_;
    // First check: the first base-interval boundary past the warmup (the
    // pre-backoff schedule checked every multiple of the base interval).
    const std::uint64_t warmup = std::max<std::uint64_t>(options.warmup_ops, 1);
    next_check_ = ((warmup + base_ - 1) / base_) * base_;
  }

  bool Due(std::uint64_t ops) const { return ops >= next_check_; }

  /// Reschedules after a check at \p ops: a committed reconfiguration
  /// resets the interval, a quiet check backs it off (capped).
  void Reschedule(std::uint64_t ops, bool reconfigured) {
    if (reconfigured) {
      interval_ = base_;
    } else {
      interval_ = std::min<std::uint64_t>(
          max_interval_, static_cast<std::uint64_t>(
                             static_cast<double>(interval_) * backoff_));
    }
    next_check_ = ops + interval_;
  }

  std::uint64_t current_interval() const { return interval_; }
  std::uint64_t base_interval() const { return base_; }
  /// Operation index of the next scheduled check (the value Due compares
  /// against) — what the controller publishes as its lock-free fast-path
  /// hint under concurrency.
  std::uint64_t next_check() const { return next_check_; }

 private:
  std::uint64_t base_ = 1;
  std::uint64_t max_interval_ = 1;
  double backoff_ = 1;
  std::uint64_t interval_ = 1;
  std::uint64_t next_check_ = 1;
};

/// \brief Scoped ANALYZE: keeps a catalog over the scopes of a set of paths
/// and re-collects only the classes whose live-object count drifted past
/// the threshold since their last collection (exec/analyze.h's
/// RefreshStatistics). The first refresh collects everything.
class ScopedAnalyzer {
 public:
  /// Refreshes the catalog from \p db for \p paths. Returns true when any
  /// class was re-collected (callers invalidate load-independent caches).
  bool Refresh(const SimDatabase& db, const std::vector<const Path*>& paths,
               const ControllerOptions& options);

  bool has_catalog() const { return has_catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Total (class, path-attribute) collections performed — the ANALYZE work
  /// counter the scoped-refresh tests pin down.
  std::uint64_t class_collections() const { return class_collections_; }
  /// Refresh() calls that re-collected at least one class.
  std::uint64_t refreshes() const { return refreshes_; }

 private:
  Catalog catalog_;
  bool has_catalog_ = false;
  std::map<ClassId, double> live_at_collection_;
  std::uint64_t class_collections_ = 0;
  std::uint64_t refreshes_ = 0;
};

/// \brief Append-only event log with an optional ring-buffer bound: keeps
/// the newest \p max_events entries, counts what it evicted, and remembers
/// the all-time committed total — so BoundedEventLog(0) is exactly the
/// unbounded vector it replaces, and a bounded log still reports true
/// counts (ServeDriver counts reconfigurations from committed(), never
/// from events().size()).
template <typename Event>
class BoundedEventLog {
 public:
  explicit BoundedEventLog(std::size_t max_events = 0) : max_(max_events) {}

  /// Sets the bound (normally once, from ControllerOptions::max_event_log,
  /// before any append). Shrinking an over-full log evicts on next Append.
  void set_max_events(std::size_t max_events) { max_ = max_events; }

  void Append(Event event) {
    ++committed_;
    events_.push_back(std::move(event));
    if (max_ > 0 && events_.size() > max_) {
      const auto excess =
          static_cast<std::ptrdiff_t>(events_.size() - max_);
      events_.erase(events_.begin(), events_.begin() + excess);
      evicted_ += static_cast<std::uint64_t>(excess);
    }
  }

  /// The retained suffix (newest committed() - evicted() events, in order).
  const std::vector<Event>& events() const { return events_; }
  /// All-time appends, evicted or not.
  std::uint64_t committed() const { return committed_; }
  std::uint64_t evicted() const { return evicted_; }
  std::size_t max_events() const { return max_; }

 private:
  std::size_t max_;
  std::vector<Event> events_;
  std::uint64_t committed_ = 0;
  std::uint64_t evicted_ = 0;
};

/// One committed joint reconfiguration (including the initial install).
struct JointReconfigurationEvent {
  /// One path's side of the change. Only changed paths are listed.
  struct PathChange {
    PathId path;
    IndexConfiguration from;  ///< empty on the initial install
    IndexConfiguration to;
  };

  std::uint64_t op_index = 0;  ///< operations observed when it happened
  bool initial = false;        ///< first install (nothing was configured)
  std::vector<PathChange> changes;  ///< ordered by path id
  /// current - best under the joint shared accounting; unconfigured paths'
  /// current cost is their *measured* naive-scan pages per operation.
  double predicted_savings_per_op = 0;
  TransitionCost transition;  ///< modeled price (shared parts charged once)
  /// Pager-measured price, recorded after the commit: drops from actual
  /// structure pages (as modeled), scan/write from the build I/O of the
  /// parts the registry actually built.
  TransitionCost measured;
};

/// \brief Attach with db->SetObserver(&controller); detach before either
/// dies. The controller manages every path registered with the database at
/// construction time. All controller work (ANALYZE, solving, index builds)
/// is uncounted; the modeled transition price is accumulated in
/// transition_pages_charged() so experiment totals can include it.
///
/// Thread safety: OnOperation may fire from any number of serving threads
/// concurrently. The monitor absorbs every observation (internally
/// synchronized); drift checks are arbitrated through a non-blocking
/// TryLock on the check mutex — when a check is due, exactly one thread
/// runs it and the rest skip past (they neither wait nor double-check),
/// with a relaxed next-check hint keeping the fast path at one atomic
/// load. The commit runs while the other threads keep serving: in-flight
/// queries finish on the old configuration epochs (SimDatabase's epoch
/// swap). The inspection accessors (events(), decisions(), monitor(), ...)
/// are for quiescent use: call them when no serving thread is driving
/// operations, or accept a racy read.
class JointReconfigurationController : public DbOpObserver {
 public:
  /// \p db must already have its workload paths registered
  /// (SimDatabase::RegisterPath); the controller snapshots the id list.
  /// options.storage_budget_bytes caps the total bytes of the distinct
  /// physical indexes the joint solver may choose.
  explicit JointReconfigurationController(SimDatabase* db,
                                          ControllerOptions options = {});

  void OnOperation(const DbOpEvent& ev) override;

  /// Runs a drift check now, regardless of the check interval.
  void CheckNow();

  const WorkloadMonitor& monitor() const { return monitor_; }
  const ScopedAnalyzer& analyzer() const { return analyzer_; }
  const DriftCadence& cadence() const { return cadence_; }
  const std::vector<PathId>& path_ids() const { return path_ids_; }

  /// The retained event log (the newest ControllerOptions::max_event_log
  /// events; everything when the bound is 0).
  const std::vector<JointReconfigurationEvent>& events() const {
    return events_.events();
  }
  /// All-time committed reconfigurations (eviction-proof — use this, not
  /// events().size(), for counting).
  std::uint64_t events_committed() const { return events_.committed(); }
  /// Events dropped from the retained log by the ring-buffer bound.
  std::uint64_t events_evicted() const { return events_.evicted(); }

  /// The retained decision ledger: one record per drift check (the newest
  /// ControllerOptions::max_decision_log records; everything when 0).
  const std::vector<DecisionRecord>& decisions() const {
    return decisions_.events();
  }
  /// All-time decision records captured (eviction-proof).
  std::uint64_t decisions_committed() const { return decisions_.committed(); }
  std::uint64_t decisions_evicted() const { return decisions_.evicted(); }

  /// Modeled page cost of every committed transition so far.
  double transition_pages_charged() const { return transition_charged_; }

  /// Pager-measured page cost of every committed transition so far (the
  /// events' .measured totals).
  double measured_transition_pages_charged() const {
    return measured_transition_charged_;
  }

  std::uint64_t checks_run() const { return checks_; }

  /// Mirrors the controller's counters (checks, committed/evicted events,
  /// modeled and measured transition pages) and the monitor's drift gauges
  /// into the database's metrics registry. Call before exporting.
  void MirrorMetrics() const;

  /// First error the control loop hit; the controller goes dormant after
  /// an error rather than flapping.
  const Status& status() const { return status_; }

 private:
  /// Returns true when a reconfiguration was committed.
  bool Check();

  /// Fills \p ev.changes with every path whose installed configuration
  /// differs from its target, commits them as one batch reconfigure,
  /// accumulates the transition charge and records the event and its
  /// decision record \p rec (measured side + verdict filled here). Returns
  /// false (and sets status_) on a commit error.
  bool Commit(const std::vector<JointPathSelection>& targets,
              JointReconfigurationEvent ev, DecisionRecord rec);

  SimDatabase* db_;
  ControllerOptions options_;
  std::vector<PathId> path_ids_;          ///< sorted (database id order)
  std::vector<std::set<ClassId>> scopes_;  ///< per path, same order
  WorkloadMonitor monitor_;

  /// Serializes drift checks and protects everything below it. Observers
  /// reach this state only through OnOperation's TryLock (or CheckNow);
  /// the const accessors read it quiescently (see the class comment).
  mutable Mutex check_mu_;
  /// Fast-path mirror of cadence_.next_check(): threads skip the TryLock
  /// entirely while the op count is below it.
  std::atomic<std::uint64_t> next_check_hint_{0};
  /// Mirror of !status_.ok(): once the loop errors, every thread stops
  /// checking without having to acquire check_mu_ to find out.
  std::atomic<bool> dormant_{false};

  DriftCadence cadence_;
  ScopedAnalyzer analyzer_;
  /// Candidate pool cached across drift checks: the pool's skeleton and
  /// unit costs depend on the catalog statistics and the path set, not the
  /// drifting load, so models are re-evaluated only when
  /// ScopedAnalyzer::Refresh re-collects a class
  /// (pathix_advisor_pool_cache_hits_total counts the reuses).
  CandidatePoolBuilder pool_builder_;

  BoundedEventLog<JointReconfigurationEvent> events_;
  BoundedEventLog<DecisionRecord> decisions_;
  double transition_charged_ = 0;
  double measured_transition_charged_ = 0;
  std::uint64_t checks_ = 0;
  Status status_;
};

}  // namespace pathix
