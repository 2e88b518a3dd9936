#pragma once

#include <string>
#include <vector>

#include "core/cost_matrix.h"
#include "core/index_config.h"

/// \file optimizer.h
/// \brief The Opt_Ind_Con procedure of Section 5 (branch-and-bound over the
/// 2^(n-1) recombinations of a path from its subpaths), plus an exhaustive
/// enumerator and an O(n^2) dynamic-programming formulation (extension) used
/// to cross-check it.

namespace pathix {

/// One step of the branch-and-bound walkthrough (mirrors the narrative the
/// paper gives for Figure 6).
struct OptimizerTraceEvent {
  enum class Kind {
    kInitial,    ///< the degree-1 configuration that seeds PC_min
    kEvaluated,  ///< a complete candidate configuration was costed
    kImproved,   ///< the candidate became the best so far
    kPruned,     ///< a prefix was discarded: prefix cost >= PC_min
  };
  Kind kind;
  IndexConfiguration config;  ///< candidate or pruned prefix (as blocks)
  double cost = 0;            ///< candidate cost or prefix bound
  std::string ToString() const;
};

/// Result of a configuration search.
struct OptimizeResult {
  IndexConfiguration config;
  double cost = 0;
  /// Complete configurations whose cost was computed ("explored" in the
  /// paper's Example 5.1 accounting). The exhaustive search explores
  /// 2^(n-1) for 1 <= n <= 63; outside that range it returns the trivial
  /// result (n <= 0) or delegates to SelectDP, whose count is the number
  /// of DP cell evaluations.
  int evaluated = 0;
  /// Prefixes cut off by the bound (branch-and-bound only).
  int pruned = 0;
  std::vector<OptimizerTraceEvent> trace;  ///< filled when requested
};

/// Exhaustive search over all 2^(n-1) recombinations; each block uses its
/// row-minimal organization (Min_Cost). Ground truth for the tests.
OptimizeResult SelectExhaustive(const CostMatrix& matrix);

/// The paper's Opt_Ind_Con: seeds PC_min with the whole-path configuration,
/// then explores first-block splits from longest to shortest, recursing on
/// the tail, discarding any prefix whose accumulated cost already reaches
/// PC_min. Ties prune (the paper keeps the first-found optimum).
OptimizeResult SelectBranchAndBound(const CostMatrix& matrix,
                                    bool capture_trace = false);

/// Interval dynamic program: best[s] = min_e PC(S[s,e]) + best[e+1].
/// O(n^2) matrix lookups. Extension (not in the paper); returns the same
/// cost as the exhaustive search.
OptimizeResult SelectDP(const CostMatrix& matrix);

}  // namespace pathix
