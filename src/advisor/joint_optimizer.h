#pragma once

#include <limits>
#include <vector>

#include "advisor/candidate_pool.h"
#include "core/index_config.h"

/// \file joint_optimizer.h
/// \brief Joint, storage-budgeted index selection over the shared candidate
/// pool: one index configuration per workload path, minimizing the
/// *workload* cost in which a physically shared index pays maintenance and
/// storage once.
///
/// Cost of an assignment (one configuration c_i per path):
///
///   sum_i QP_i(c_i)  +  sum_{distinct entries E used}  max over uses of E
///                                                       of its maintenance
///
/// subject to  sum_{distinct entries E used} storage(E) <= budget.
///
/// This generalizes the greedy merge of AdviseMultiplePaths: evaluating the
/// per-path standalone optima under this accounting reproduces exactly the
/// greedy `total_cost_shared`, so the joint optimum is <= greedy <= the sum
/// of independent optima by construction (the search is seeded with the
/// greedy assignment and the space contains it).
///
/// The search is a branch-and-bound over paths. The admissible lower bound
/// for the unassigned paths is each path's optimum with maintenance (and
/// storage, for budget pruning) discounted to zero on *shareable* candidates
/// — a path can never beat its own unshared optimum on the candidates only
/// it can use, and on shared candidates another path may already have paid.
/// Small instances fall back to exhaustive enumeration (also the testing
/// ground truth).

namespace pathix {

/// Tie tolerance on workload costs (pages per operation): the search keeps
/// an incumbent unless a candidate beats it by more than this, and the
/// online controller treats savings at or below it as none — they are
/// floating-point noise between cost sums taken in different orders.
inline constexpr double kCostEps = 1e-7;

struct JointOptions {
  /// Maximum total bytes across the distinct chosen indexes; infinity (the
  /// default) disables the constraint.
  double storage_budget_bytes = std::numeric_limits<double>::infinity();

  enum class Algorithm {
    kAuto,             ///< exhaustive when small, else branch-and-bound
    kExhaustive,       ///< full enumeration (ground truth for tests)
    kBranchAndBound,   ///< bounded search, greedy-seeded
  };
  Algorithm algorithm = Algorithm::kAuto;

  /// kAuto uses exhaustive enumeration when the product of per-path
  /// configuration counts is at most this.
  long exhaustive_limit = 20000;

  /// Hard cap on the number of enumerated configurations per path; a path
  /// beyond it fails with FailedPrecondition (shorten the path or trim the
  /// candidate organizations).
  long max_configs_per_path = 500000;

  /// Number of scored alternative assignments captured into
  /// JointSelectionResult::alternatives (plus greedy-seed quality stats):
  /// each alternative is the chosen assignment with exactly one path's
  /// configuration swapped, re-priced under the shared accounting. 0 (the
  /// default) skips the extra evaluation entirely — the search itself is
  /// unchanged either way.
  int capture_alternatives = 0;
};

/// The configuration chosen for one workload path.
struct JointPathSelection {
  IndexConfiguration config;
  double query_prefix_cost = 0;  ///< retrieval share this path always pays
  double standalone_cost = 0;    ///< unshared cost of the same configuration
};

/// One distinct physical index of the joint solution.
struct ChosenIndex {
  int entry_id = -1;              ///< index into CandidatePool::entries()
  std::vector<int> path_indexes;  ///< paths whose configuration uses it
  double charged_maintain = 0;    ///< the (single) maintenance charge
};

/// One scored alternative assignment (JointOptions::capture_alternatives):
/// the chosen assignment with \p path_index's configuration swapped to
/// \p config, everything else fixed, re-priced under the same shared
/// accounting the search optimizes. total_cost - the chosen total_cost is
/// the candidate's why-not margin.
struct JointCandidateScore {
  int path_index = -1;
  IndexConfiguration config;
  double total_cost = 0;
  double total_storage_bytes = 0;
  bool within_budget = true;
};

struct JointSelectionResult {
  std::vector<JointPathSelection> per_path;  ///< one per workload path
  std::vector<ChosenIndex> chosen;           ///< distinct physical indexes
  double total_cost = 0;           ///< shared-aware workload cost
  double total_storage_bytes = 0;  ///< sum over distinct chosen indexes
  long nodes_explored = 0;
  long nodes_pruned = 0;
  bool used_branch_and_bound = false;
  /// Total enumerated per-path configurations (the search space's width).
  long configs_enumerated = 0;
  /// Admissible root lower bound: sum over paths of the cheapest
  /// maintenance-discounted per-path cost. total_cost >= lower_bound always;
  /// the gap is how loose the bound was on this instance.
  double lower_bound = 0;
  /// Single-swap alternatives, cheapest first, capped at
  /// capture_alternatives (empty when capturing is off).
  std::vector<JointCandidateScore> alternatives;
  /// Greedy-seed quality (capture_alternatives > 0 only): each path's
  /// standalone optimum, priced under the shared accounting — what the
  /// search improved on.
  bool has_greedy_seed = false;
  double greedy_cost = 0;
  double greedy_storage_bytes = 0;
  bool greedy_feasible = false;
};

/// Selects one configuration per path over the pool. Fails with
/// FailedPrecondition when no assignment fits the storage budget.
Result<JointSelectionResult> SelectJointConfiguration(
    const CandidatePool& pool, const JointOptions& options = {});

}  // namespace pathix
