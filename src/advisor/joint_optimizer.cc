#include "advisor/joint_optimizer.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace pathix {

namespace {

constexpr double kBytesEps = 1e-6;

/// One enumerated configuration of one path, with everything the search
/// needs precomputed from the pool.
struct PerPathConfig {
  IndexConfiguration config;
  std::vector<int> entry_ids;      // parallel to config.parts()
  std::vector<double> maintains;   // per part, maintain + boundary
  double qp = 0;                   // sum of query + prefix shares
  double full = 0;                 // qp + all maintenance (standalone cost)
  double lb = 0;                   // qp + maintenance of unshareable entries
  double unique_storage = 0;       // storage of unshareable entries
};

/// Enumerates every (split, per-block organization) configuration of one
/// path. Without a storage budget, blocks whose candidate is unshareable
/// are restricted to the cheapest organization: swapping a dominated
/// unshareable organization for the per-block optimum never increases the
/// joint cost, so optimality is preserved (the swap could change storage,
/// hence the restriction is off under a budget).
Status EnumerateConfigs(const CandidatePool& pool, int path_index,
                        bool restrict_orgs, long max_configs,
                        std::vector<PerPathConfig>* out) {
  const int n = pool.path_length(path_index);
  const std::vector<IndexOrg>& orgs = pool.orgs();

  // Allowed organizations per subpath row.
  const std::vector<Subpath> subpaths = EnumerateSubpaths(n);
  std::vector<std::vector<IndexOrg>> allowed(subpaths.size());
  for (std::size_t row = 0; row < subpaths.size(); ++row) {
    const Subpath& sp = subpaths[row];
    if (!restrict_orgs) {
      allowed[row] = orgs;
      continue;
    }
    IndexOrg best_org = orgs.front();
    double best_cost = std::numeric_limits<double>::infinity();
    for (const IndexOrg org : orgs) {
      const CandidateUse& use = pool.UseFor(path_index, sp, org);
      const double total = use.query_prefix + use.maintain;
      const int entry = pool.EntryFor(path_index, sp, org);
      if (pool.entries()[static_cast<std::size_t>(entry)].shareable) {
        allowed[row].push_back(org);
      }
      if (total < best_cost) {
        best_cost = total;
        best_org = org;
      }
    }
    if (std::find(allowed[row].begin(), allowed[row].end(), best_org) ==
        allowed[row].end()) {
      allowed[row].push_back(best_org);
    }
  }

  PerPathConfig partial;
  std::vector<IndexedSubpath> parts;
  Status overflow = Status::OK();

  // Depth-first over the first-block end, then organizations, then the tail.
  auto recurse = [&](auto&& self, int start) -> void {
    if (!overflow.ok()) return;
    if (start > n) {
      if (static_cast<long>(out->size()) >= max_configs) {
        overflow = Status::FailedPrecondition(
            "path " + std::to_string(path_index) + " exceeds " +
            std::to_string(max_configs) +
            " joint candidates; shorten the path or trim the candidate "
            "organizations");
        return;
      }
      PerPathConfig done = partial;
      done.config = IndexConfiguration(parts);
      out->push_back(std::move(done));
      return;
    }
    for (int end = start; end <= n; ++end) {
      const Subpath sp{start, end};
      const int row = SubpathRowIndex(n, sp);
      for (const IndexOrg org : allowed[static_cast<std::size_t>(row)]) {
        const CandidateUse& use = pool.UseFor(path_index, sp, org);
        const int entry = pool.EntryFor(path_index, sp, org);
        const CandidateEntry& e =
            pool.entries()[static_cast<std::size_t>(entry)];

        parts.push_back(IndexedSubpath{sp, org});
        partial.entry_ids.push_back(entry);
        partial.maintains.push_back(use.maintain);
        partial.qp += use.query_prefix;
        partial.full += use.query_prefix + use.maintain;
        if (!e.shareable) {
          partial.lb += use.maintain;
          partial.unique_storage += e.storage_bytes;
        }

        self(self, end + 1);

        parts.pop_back();
        partial.entry_ids.pop_back();
        partial.maintains.pop_back();
        partial.qp -= use.query_prefix;
        partial.full -= use.query_prefix + use.maintain;
        if (!e.shareable) {
          partial.lb -= use.maintain;
          partial.unique_storage -= e.storage_bytes;
        }
      }
    }
  };
  recurse(recurse, 1);
  if (!overflow.ok()) return overflow;

  for (PerPathConfig& cfg : *out) cfg.lb += cfg.qp;
  std::sort(out->begin(), out->end(),
            [](const PerPathConfig& a, const PerPathConfig& b) {
              return a.lb < b.lb;
            });
  return Status::OK();
}

/// Depth-first search over paths with shared-aware incremental accounting.
class JointSearcher {
 public:
  JointSearcher(const CandidatePool& pool,
                const std::vector<std::vector<PerPathConfig>>& configs,
                const JointOptions& options, bool use_bound)
      : pool_(pool),
        configs_(configs),
        budget_(options.storage_budget_bytes),
        use_bound_(use_bound) {
    const std::size_t k = configs.size();
    suffix_lb_.assign(k + 1, 0);
    suffix_unique_storage_.assign(k + 1, 0);
    for (std::size_t i = k; i-- > 0;) {
      double min_storage = std::numeric_limits<double>::infinity();
      for (const PerPathConfig& cfg : configs[i]) {
        min_storage = std::min(min_storage, cfg.unique_storage);
      }
      // configs are sorted by lb, so front() carries the path's bound.
      suffix_lb_[i] = suffix_lb_[i + 1] + configs[i].front().lb;
      suffix_unique_storage_[i] = suffix_unique_storage_[i + 1] + min_storage;
    }
    placed_maint_.assign(pool.entries().size(), -1.0);
    choice_.assign(k, -1);
  }

  /// Seeds the incumbent with a concrete assignment (ignored if it busts
  /// the budget). Guarantees the final result is no worse than the seed.
  void Seed(const std::vector<int>& choice) {
    double cost = 0;
    double storage = 0;
    for (std::size_t i = 0; i < choice.size(); ++i) {
      const PerPathConfig& cfg =
          configs_[i][static_cast<std::size_t>(choice[i])];
      cost += Apply(cfg, &storage);
    }
    Unwind(0);
    if (storage <= budget_ + kBytesEps && cost < best_cost_) {
      best_cost_ = cost;
      best_storage_ = storage;
      best_choice_ = choice;
    }
  }

  void Run() { Recurse(0, 0, 0); }

  /// Prices one concrete assignment under the shared accounting without
  /// touching the incumbent (Apply + full Unwind — the same arithmetic
  /// Seed uses). For alternative scoring after the search.
  std::pair<double, double> Evaluate(const std::vector<int>& choice) {
    double cost = 0;
    double storage = 0;
    for (std::size_t i = 0; i < choice.size(); ++i) {
      cost += Apply(configs_[i][static_cast<std::size_t>(choice[i])],
                    &storage);
    }
    Unwind(0);
    return {cost, storage};
  }

  /// The admissible root bound (suffix bound over all paths); valid in
  /// both modes since the ctor always computes it.
  double root_lower_bound() const { return suffix_lb_.front(); }

  bool found() const { return !best_choice_.empty(); }
  double best_cost() const { return best_cost_; }
  double best_storage() const { return best_storage_; }
  const std::vector<int>& best_choice() const { return best_choice_; }
  long explored() const { return explored_; }
  long pruned() const { return pruned_; }

 private:
  /// Charges \p cfg on top of the current placement: query/prefix always,
  /// maintenance only above what is already placed, storage once per new
  /// entry. Placement changes land on the shared undo log (old values);
  /// callers note the log size beforehand and Unwind back to it.
  double Apply(const PerPathConfig& cfg, double* storage) {
    double delta = cfg.qp;
    for (std::size_t p = 0; p < cfg.entry_ids.size(); ++p) {
      const int entry = cfg.entry_ids[p];
      const double m = cfg.maintains[p];
      double& placed = placed_maint_[static_cast<std::size_t>(entry)];
      if (placed < 0) {
        delta += m;
        *storage +=
            pool_.entries()[static_cast<std::size_t>(entry)].storage_bytes;
        undo_.emplace_back(entry, placed);
        placed = m;
      } else if (m > placed) {
        delta += m - placed;
        undo_.emplace_back(entry, placed);
        placed = m;
      }
    }
    return delta;
  }

  /// Reverts the undo log down to \p mark (newest first, so an entry
  /// touched twice ends at its original value).
  void Unwind(std::size_t mark) {
    while (undo_.size() > mark) {
      placed_maint_[static_cast<std::size_t>(undo_.back().first)] =
          undo_.back().second;
      undo_.pop_back();
    }
  }

  void Recurse(std::size_t i, double cost, double storage) {
    ++explored_;
    if (i == configs_.size()) {
      if (cost < best_cost_ - kCostEps) {
        best_cost_ = cost;
        best_storage_ = storage;
        best_choice_ = choice_;
      }
      return;
    }
    if (use_bound_ && cost + suffix_lb_[i] >= best_cost_ - kCostEps) {
      ++pruned_;
      return;
    }
    if (storage + suffix_unique_storage_[i] > budget_ + kBytesEps) {
      ++pruned_;
      return;
    }
    for (std::size_t c = 0; c < configs_[i].size(); ++c) {
      const PerPathConfig& cfg = configs_[i][c];
      if (use_bound_ &&
          cost + cfg.lb + suffix_lb_[i + 1] >= best_cost_ - kCostEps) {
        ++pruned_;
        break;  // configs sorted by lb: every later one is bounded too
      }
      const std::size_t mark = undo_.size();
      double new_storage = storage;
      const double delta = Apply(cfg, &new_storage);
      if (new_storage + suffix_unique_storage_[i + 1] <= budget_ + kBytesEps) {
        choice_[i] = static_cast<int>(c);
        Recurse(i + 1, cost + delta, new_storage);
        choice_[i] = -1;
      }
      Unwind(mark);
    }
  }

  const CandidatePool& pool_;
  const std::vector<std::vector<PerPathConfig>>& configs_;
  const double budget_;
  const bool use_bound_;

  std::vector<double> suffix_lb_;
  std::vector<double> suffix_unique_storage_;
  std::vector<double> placed_maint_;  // -1: entry not placed
  std::vector<std::pair<int, double>> undo_;  // shared log, see Unwind()
  std::vector<int> choice_;

  double best_cost_ = std::numeric_limits<double>::infinity();
  double best_storage_ = 0;
  std::vector<int> best_choice_;
  long explored_ = 0;
  long pruned_ = 0;
};

}  // namespace

Result<JointSelectionResult> SelectJointConfiguration(
    const CandidatePool& pool, const JointOptions& options) {
  if (pool.num_paths() == 0) {
    return Status::InvalidArgument("empty candidate pool");
  }
  if (!(options.storage_budget_bytes >= 0)) {
    return Status::InvalidArgument("storage budget must be >= 0");
  }
  const bool has_budget =
      options.storage_budget_bytes != std::numeric_limits<double>::infinity();

  std::vector<std::vector<PerPathConfig>> configs(
      static_cast<std::size_t>(pool.num_paths()));
  long long combinations = 1;
  for (int i = 0; i < pool.num_paths(); ++i) {
    PATHIX_RETURN_IF_ERROR(
        EnumerateConfigs(pool, i, /*restrict_orgs=*/!has_budget,
                         options.max_configs_per_path,
                         &configs[static_cast<std::size_t>(i)]));
    const long long count =
        static_cast<long long>(configs[static_cast<std::size_t>(i)].size());
    if (combinations <= options.exhaustive_limit) {
      combinations *= count;  // saturates past the threshold check below
    }
  }

  bool exhaustive;
  switch (options.algorithm) {
    case JointOptions::Algorithm::kExhaustive:
      exhaustive = true;
      break;
    case JointOptions::Algorithm::kBranchAndBound:
      exhaustive = false;
      break;
    case JointOptions::Algorithm::kAuto:
    default:
      exhaustive = combinations <= options.exhaustive_limit;
      break;
  }

  // Greedy assignment: each path's standalone optimum. Evaluating it under
  // the shared accounting reproduces the greedy merge's total.
  const auto greedy_choice = [&configs] {
    std::vector<int> greedy(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < configs[i].size(); ++c) {
        if (configs[i][c].full < configs[i][best].full) best = c;
      }
      greedy[i] = static_cast<int>(best);
    }
    return greedy;
  };

  JointSearcher searcher(pool, configs, options, /*use_bound=*/!exhaustive);
  if (!exhaustive) {
    // Seed the incumbent with the greedy assignment, so the result can only
    // improve on it. Exhaustive mode stays unseeded: pre-setting the
    // incumbent would change which cost-tied assignment wins (leaves accept
    // on strict improvement only), and the exhaustive pick is the tests'
    // ground truth.
    searcher.Seed(greedy_choice());
  }
  searcher.Run();

  if (!searcher.found()) {
    return Status::FailedPrecondition(
        "no index configuration assignment fits the storage budget of " +
        std::to_string(options.storage_budget_bytes) +
        " bytes; raise the budget or add cheaper candidate organizations "
        "(e.g. NONE)");
  }

  JointSelectionResult result;
  result.total_cost = searcher.best_cost();
  result.total_storage_bytes = searcher.best_storage();
  result.nodes_explored = searcher.explored();
  result.nodes_pruned = searcher.pruned();
  result.used_branch_and_bound = !exhaustive;
  for (const std::vector<PerPathConfig>& path_configs : configs) {
    result.configs_enumerated += static_cast<long>(path_configs.size());
  }
  result.lower_bound = searcher.root_lower_bound();

  if (options.capture_alternatives > 0) {
    const auto [greedy_cost, greedy_storage] =
        searcher.Evaluate(greedy_choice());
    result.has_greedy_seed = true;
    result.greedy_cost = greedy_cost;
    result.greedy_storage_bytes = greedy_storage;
    result.greedy_feasible =
        greedy_storage <= options.storage_budget_bytes + kBytesEps;

    // Score every single-config swap against the chosen assignment. The
    // enumeration order is deterministic and the sort stable, so the
    // captured list is byte-stable across runs (the decision ledger's
    // determinism contract).
    std::vector<int> swapped = searcher.best_choice();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const int chosen_c = swapped[i];
      for (std::size_t c = 0; c < configs[i].size(); ++c) {
        if (static_cast<int>(c) == chosen_c) continue;
        swapped[i] = static_cast<int>(c);
        const auto [cost, storage] = searcher.Evaluate(swapped);
        JointCandidateScore alt;
        alt.path_index = static_cast<int>(i);
        alt.config = configs[i][c].config;
        alt.total_cost = cost;
        alt.total_storage_bytes = storage;
        alt.within_budget = storage <= options.storage_budget_bytes + kBytesEps;
        result.alternatives.push_back(std::move(alt));
      }
      swapped[i] = chosen_c;
    }
    std::stable_sort(result.alternatives.begin(), result.alternatives.end(),
                     [](const JointCandidateScore& a,
                        const JointCandidateScore& b) {
                       return a.total_cost < b.total_cost;
                     });
    if (result.alternatives.size() >
        static_cast<std::size_t>(options.capture_alternatives)) {
      result.alternatives.resize(
          static_cast<std::size_t>(options.capture_alternatives));
    }
  }

  // Re-derive the per-path selections and the distinct chosen indexes.
  std::set<int> distinct;
  std::vector<std::vector<int>> users;
  std::vector<double> charged;
  std::vector<int> chosen_ids;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const PerPathConfig& cfg =
        configs[i][static_cast<std::size_t>(searcher.best_choice()[i])];
    JointPathSelection sel;
    sel.config = cfg.config;
    sel.query_prefix_cost = cfg.qp;
    sel.standalone_cost = cfg.full;
    result.per_path.push_back(std::move(sel));
    for (std::size_t p = 0; p < cfg.entry_ids.size(); ++p) {
      const int entry = cfg.entry_ids[p];
      auto [it, inserted] = distinct.emplace(entry);
      (void)it;
      if (inserted) {
        chosen_ids.push_back(entry);
        users.emplace_back();
        charged.push_back(0);
      }
      const std::size_t pos = static_cast<std::size_t>(
          std::find(chosen_ids.begin(), chosen_ids.end(), entry) -
          chosen_ids.begin());
      users[pos].push_back(static_cast<int>(i));
      charged[pos] = std::max(charged[pos], cfg.maintains[p]);
    }
  }
  for (std::size_t j = 0; j < chosen_ids.size(); ++j) {
    ChosenIndex chosen;
    chosen.entry_id = chosen_ids[j];
    chosen.path_indexes = std::move(users[j]);
    chosen.charged_maintain = charged[j];
    result.chosen.push_back(std::move(chosen));
  }
  return result;
}

}  // namespace pathix
