#include "online/joint_experiment.h"

#include <map>
#include <set>
#include <utility>

#include "exec/analyze.h"
#include "serve/serve_driver.h"

namespace pathix {

namespace {

/// A freshly populated database with every path registered, ready to
/// replay the trace. A nonzero \p buffer_pages enables the buffer pool
/// *after* population, so every replay starts from an identically cold pool.
struct Instance {
  explicit Instance(const TraceSpec& spec, std::size_t buffer_pages = 0)
      : db(spec.schema, spec.catalog.params()),
        driver(&db, spec, ServeOptions{1}) {
    driver.Populate();
    if (buffer_pages > 0) db.pager().EnableBuffer(buffer_pages);
  }
  SimDatabase db;
  ServeDriver driver;
};

/// The joint optimum for the given per-path loads under the spec's budget,
/// on \p catalog (live statistics of the database the replay runs on).
Result<std::vector<IndexConfiguration>> SolveJoint(
    const SimDatabase& db, const TraceSpec& spec,
    const std::vector<LoadDistribution>& loads, const Catalog& catalog) {
  std::vector<PathWorkload> workloads;
  workloads.reserve(spec.paths.size());
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    PathWorkload w;
    w.name = spec.paths[p].id;
    w.path = spec.paths[p].path;
    w.load = loads[p];
    workloads.push_back(std::move(w));
  }
  AdvisorOptions advisor_options;
  advisor_options.orgs = spec.options.orgs;
  Result<CandidatePool> pool =
      CandidatePool::Build(db.schema(), catalog, workloads, advisor_options);
  if (!pool.ok()) return pool.status();
  JointOptions joint_options;
  joint_options.storage_budget_bytes = spec.storage_budget_bytes;
  Result<JointSelectionResult> joint =
      SelectJointConfiguration(pool.value(), joint_options);
  if (!joint.ok()) return joint.status();
  std::vector<IndexConfiguration> configs;
  configs.reserve(spec.paths.size());
  for (const JointPathSelection& sel : joint.value().per_path) {
    configs.push_back(sel.config);
  }
  return configs;
}

/// Installs one configuration per path (uncounted).
Status InstallAll(Instance* inst, const TraceSpec& spec,
                  const std::vector<IndexConfiguration>& configs) {
  std::vector<std::pair<PathId, IndexConfiguration>> changes;
  changes.reserve(spec.paths.size());
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    changes.emplace_back(spec.paths[p].id, configs[p]);
  }
  return inst->db.ReconfigureIndexes(changes);
}

}  // namespace

LoadDistribution TraceAverageMix(const TraceSpec& spec,
                                 std::size_t path_index) {
  std::map<ClassId, OpLoad> acc;
  double total_ops = 0;
  for (const TracePhase& phase : spec.phases) {
    double phase_total = 0;
    for (const auto& per_path : phase.queries) {
      for (const auto& [cls, weight] : per_path) {
        (void)cls;
        phase_total += weight;
      }
    }
    for (const auto& [cls, upd] : phase.updates) {
      (void)cls;
      phase_total += upd.insert + upd.del;
    }
    if (phase_total <= 0) continue;
    const double ops = static_cast<double>(phase.ops);
    for (const auto& [cls, l] : phase.mixes[path_index].entries()) {
      OpLoad& a = acc[cls];
      a.query += l.query / phase_total * ops;
      a.insert += l.insert / phase_total * ops;
      a.del += l.del / phase_total * ops;
    }
    total_ops += ops;
  }
  LoadDistribution avg;
  if (total_ops <= 0) return avg;
  for (const auto& [cls, a] : acc) {
    avg.Set(cls, a.query / total_ops, a.insert / total_ops,
            a.del / total_ops);
  }
  return avg;
}

Catalog CollectWorkloadStatistics(const SimDatabase& db,
                                  const TraceSpec& spec) {
  PhysicalParams params = spec.catalog.params();
  params.page_size = static_cast<double>(db.pager().page_size());
  Catalog catalog(params);
  std::set<std::pair<ClassId, std::string>> collected;
  for (const TracePath& tp : spec.paths) {
    std::set<ClassId> scope;
    const std::vector<ClassId> scope_vec = tp.path.Scope(db.schema());
    scope.insert(scope_vec.begin(), scope_vec.end());
    RefreshStatistics(db.store(), db.schema(), tp.path, scope, &catalog,
                      &collected);
  }
  return catalog;
}

Result<OptimizeResult> OfflineOptimum(const SimDatabase& db, const Path& path,
                                      const std::vector<IndexOrg>& orgs,
                                      const LoadDistribution& load,
                                      const PhysicalParams& physical_params) {
  // Statistics exactly as the controller's ANALYZE collects them, so the
  // convergence comparison is apples to apples.
  PhysicalParams params = physical_params;
  params.page_size = static_cast<double>(db.pager().page_size());
  const Catalog catalog =
      CollectStatistics(db.store(), db.schema(), path, params);
  Result<PathContext> ctx =
      PathContext::Build(db.schema(), path, catalog, load);
  if (!ctx.ok()) return ctx.status();
  return SelectDP(CostMatrix::Build(ctx.value(), orgs));
}

ControllerOptions TraceControllerOptions(const TraceSpec& spec,
                                         ControllerOptions base) {
  base.orgs = spec.options.orgs;
  base.physical_params = spec.catalog.params();
  base.storage_budget_bytes = spec.storage_budget_bytes;
  return base;
}

Result<JointExperimentReport> RunJointOnlineExperiment(
    const TraceSpec& spec, const ControllerOptions& options,
    std::size_t buffer_pages) {
  for (IndexOrg org : spec.options.orgs) {
    if (org == IndexOrg::kNX || org == IndexOrg::kPX) {
      return Status::FailedPrecondition(
          "NX/PX are model-only candidates; the online experiment runs "
          "physical configurations");
    }
  }
  if (spec.paths.empty()) {
    return Status::InvalidArgument("trace spec declares no paths");
  }

  JointExperimentReport report;
  const ControllerOptions copts = TraceControllerOptions(spec, options);

  // ----------------------------------------------------------- online run
  {
    Instance inst(spec, buffer_pages);
    JointReconfigurationController controller(&inst.db, copts);
    inst.db.SetObserver(&controller);
    report.online_metrics_baseline = inst.db.SnapshotMetrics();
    report.online.label = "online-joint";
    report.online.phases.reserve(spec.phases.size());
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      report.online.phases.push_back(
          inst.driver.RunPhase(i, &controller).phase);
      controller.MirrorMetrics();
      report.online_phase_metrics.push_back(inst.db.SnapshotMetrics());
    }
    inst.db.SetObserver(nullptr);
    if (!controller.status().ok()) return controller.status();
    report.events = controller.events();
    controller.MirrorMetrics();
    report.online_metrics = inst.db.SnapshotMetrics();
  }

  // ----------------------------------------------------- joint oracle run
  {
    Instance inst(spec, buffer_pages);
    report.oracle.label = "oracle-joint";
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      // The replay mutates the store between phases, so the oracle
      // re-collects per phase — just like the online run's scoped ANALYZE.
      Result<std::vector<IndexConfiguration>> best = SolveJoint(
          inst.db, spec, spec.phases[i].mixes,
          CollectWorkloadStatistics(inst.db, spec));
      if (!best.ok()) return best.status();
      PATHIX_RETURN_IF_ERROR(InstallAll(&inst, spec, best.value()));
      report.oracle_configs.push_back(best.value());
      report.oracle.phases.push_back(inst.driver.RunPhase(i).phase);
    }
  }

  // -------------------------------------------------------- static field
  {
    std::vector<JointStaticCandidate> candidates;
    Instance stats_inst(spec);
    // One catalog serves every static solve: stats_inst is populated once
    // and never replayed.
    const Catalog stats_catalog =
        CollectWorkloadStatistics(stats_inst.db, spec);
    const auto add_candidate =
        [&](const std::string& label, bool respects_budget,
            const std::vector<IndexConfiguration>& configs) {
          for (const JointStaticCandidate& c : candidates) {
            if (c.configs == configs) return;  // dedup identical assignments
          }
          JointStaticCandidate c;
          c.label = label;
          c.respects_budget = respects_budget;
          c.configs = configs;
          candidates.push_back(std::move(c));
        };

    // The joint optimum of the averaged mixes, and of each phase's mixes —
    // all solved under the budget.
    std::vector<LoadDistribution> avg;
    avg.reserve(spec.paths.size());
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      avg.push_back(TraceAverageMix(spec, p));
    }
    Result<std::vector<IndexConfiguration>> joint_avg =
        SolveJoint(stats_inst.db, spec, avg, stats_catalog);
    if (!joint_avg.ok()) return joint_avg.status();
    add_candidate("joint-avg", true, joint_avg.value());
    for (const TracePhase& phase : spec.phases) {
      Result<std::vector<IndexConfiguration>> joint_phase =
          SolveJoint(stats_inst.db, spec, phase.mixes, stats_catalog);
      if (!joint_phase.ok()) return joint_phase.status();
      add_candidate("joint-phase-" + phase.name, true, joint_phase.value());
    }

    // The unbudgeted per-path independent optima on the averaged mixes.
    // Physically this coincides with the greedy merge (identical structures
    // share through the registry either way); it may bust the budget and is
    // reported as the what-unlimited-storage-buys baseline.
    {
      std::vector<IndexConfiguration> configs;
      configs.reserve(spec.paths.size());
      for (std::size_t p = 0; p < spec.paths.size(); ++p) {
        Result<OptimizeResult> best =
            OfflineOptimum(stats_inst.db, spec.paths[p].path,
                           spec.options.orgs, avg[p], spec.catalog.params());
        if (!best.ok()) return best.status();
        configs.push_back(best.value().config);
      }
      add_candidate("independent-greedy", false, configs);
    }

    for (JointStaticCandidate& c : candidates) {
      Instance inst(spec, buffer_pages);
      PATHIX_RETURN_IF_ERROR(InstallAll(&inst, spec, c.configs));
      c.run.label = "static:" + c.label;
      for (std::size_t i = 0; i < spec.phases.size(); ++i) {
        c.run.phases.push_back(inst.driver.RunPhase(i).phase);
      }
      report.statics.push_back(std::move(c));
    }
    for (std::size_t i = 0; i < report.statics.size(); ++i) {
      if (!report.statics[i].respects_budget) continue;
      if (report.best_static_joint < 0 ||
          report.statics[i].run.total_cost() <
              report.statics[static_cast<std::size_t>(
                                 report.best_static_joint)]
                  .run.total_cost()) {
        report.best_static_joint = static_cast<int>(i);
      }
    }
  }

  return report;
}

}  // namespace pathix
