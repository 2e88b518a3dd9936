#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "exec/database.h"
#include "workload/load.h"

/// \file workload_monitor.h
/// \brief Exponentially-decayed estimation of the live load distribution,
/// per class and per path.
///
/// The paper's advisor assumes LD_{A_n} is known up front; the online
/// subsystem instead observes the operation stream of a SimDatabase and
/// maintains decayed operation counts. Queries are attributed to the path
/// they ran on (a workload of overlapping paths has one query load *per
/// path*); insertions and deletions are path-agnostic — one object churn
/// maintains the indexes of every path whose scope contains the class, so
/// its frequency enters every such path's load, exactly the accounting
/// under which the workload advisor charges a shared index's maintenance
/// once. Old traffic fades with a configurable half-life, so the estimate
/// tracks drift with O(paths x classes) state and O(1) amortized work per
/// operation — no unbounded history.

namespace pathix {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// \brief Decayed per-path per-class query counters plus per-class update
/// counters.
///
/// Counts decay by factor 2^(-1/half_life) per observed operation, applied
/// lazily: each entry remembers the operation index it was last folded at.
/// A stationary stream converges to weights proportional to the true mix;
/// after a phase shift the old phase's influence halves every half_life
/// operations. All estimates are normalized by the *shared* decayed total,
/// so per-path loads are mutually comparable (the joint optimizer's
/// max-across-uses maintenance charge relies on a common scale).
class WorkloadMonitor {
 public:
  /// \p half_life_ops <= 0 disables decay (plain counting).
  explicit WorkloadMonitor(double half_life_ops = 512);

  /// Records one operation. Queries are keyed by \p ev.path (empty path =
  /// the anonymous single-path stream); updates are keyed by class only.
  void Observe(const DbOpEvent& ev) EXCLUDES(mu_);

  /// Single-path convenience: queries land on the anonymous path, with no
  /// measured pages attached.
  void Observe(DbOpKind kind, ClassId cls) {
    Observe({kind, cls, {}, false, {}});
  }

  /// The estimate for one path of a workload: that path's query
  /// frequencies, plus the update frequencies of the classes in \p scope.
  /// Normalized by the same shared total as every other path's estimate.
  LoadDistribution EstimatedLoadFor(const PathId& path,
                                    const std::set<ClassId>& scope) const
      EXCLUDES(mu_);

  /// Decayed measured pages of *naive-scan* queries on \p path per observed
  /// operation (same shared normalization scale as the frequency
  /// estimates) — the priced current-cost of an unconfigured path, directly
  /// comparable to the cost model's expected pages per operation. Zero
  /// until a naive query on the path has been observed.
  double MeasuredNaiveQueryPagesPerOp(const PathId& path) const EXCLUDES(mu_);

  /// Decayed total weight across all paths, classes and kinds.
  double DecayedTotal() const EXCLUDES(mu_);

  std::uint64_t ops_observed() const EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return ops_;
  }

  void Reset() EXCLUDES(mu_);

  /// Mirrors the drift estimate into \p registry (obs/metrics.h): gauges
  /// pathix_monitor_decayed_total, pathix_monitor_query_weight{path} (the
  /// path's share of the decayed weight) and
  /// pathix_monitor_naive_pages_per_op{path}, plus the
  /// pathix_monitor_ops_observed_total counter. Estimates are collected
  /// under mu_ first; metric mutexes are only taken after it is released.
  void ExportMetrics(obs::MetricsRegistry* registry) const EXCLUDES(mu_);

 private:
  struct Entry {
    double count = 0;
    std::uint64_t as_of = 0;  ///< operation index the count is decayed to
  };

  /// count * decay^(now - as_of), folding the entry forward. \p e points
  /// into one of the guarded maps, hence the lock requirement.
  void FoldTo(Entry* e, std::uint64_t now) const REQUIRES(mu_);
  double Folded(const Entry& e) const REQUIRES_SHARED(mu_);

  /// DecayedTotal for callers already holding mu_ (shared_mutex does not
  /// support recursive locking).
  double DecayedTotalLocked() const REQUIRES_SHARED(mu_);

  mutable Mutex mu_;
  double decay_ = 1;  ///< per-operation decay factor; constant after ctor
  std::uint64_t ops_ GUARDED_BY(mu_) = 0;
  /// Query counts per (path, class); updates per class.
  std::map<PathId, std::unordered_map<ClassId, Entry>> queries_
      GUARDED_BY(mu_);
  std::unordered_map<ClassId, Entry> inserts_ GUARDED_BY(mu_);
  std::unordered_map<ClassId, Entry> deletes_ GUARDED_BY(mu_);
  /// Decayed measured pages of naive-scan queries, per path (the events'
  /// pages deltas, weighted with the same decay as the counts).
  std::map<PathId, Entry> naive_pages_ GUARDED_BY(mu_);
};

}  // namespace pathix
