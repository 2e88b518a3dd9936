// Acceptance criteria of the multi-path online subsystem, on the shipped
// two-path three-phase drift trace with its binding storage budget: total
// joint online page cost (including modeled transition charges) beats the
// best static *joint* assignment and stays within 2x of the per-phase
// joint oracle.

#include <gtest/gtest.h>

#include "exec/analyze.h"
#include "online/joint_experiment.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

TEST(JointDriftTraceTest, OnlineBeatsBestStaticJointAndTracksTheOracle) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_EQ(spec.paths.size(), 2u);
  ASSERT_EQ(spec.phases.size(), 3u);
  ASSERT_TRUE(spec.has_budget);

  Result<JointExperimentReport> result =
      RunJointOnlineExperiment(spec, ControllerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JointExperimentReport& r = result.value();

  // The drift is real: the joint oracle changes its assignment across
  // phases, and the online controller reconfigured (beyond the initial
  // install) to follow it.
  ASSERT_EQ(r.oracle_configs.size(), 3u);
  EXPECT_FALSE(r.oracle_configs[0] == r.oracle_configs[1]);
  std::size_t switches = 0;
  for (const JointReconfigurationEvent& ev : r.events) {
    if (!ev.initial) ++switches;
  }
  EXPECT_GE(switches, 1u);

  // Acceptance: beat every budget-feasible static assignment, stay within
  // 2x of clairvoyance. Transition charges are part of the online total.
  ASSERT_GE(r.best_static_joint, 0);
  EXPECT_LT(r.online.total_cost(), r.best_static_joint_cost());
  EXPECT_LE(r.online_vs_oracle(), 2.0);
  EXPECT_GT(r.online.transition_pages(), 0.0);
  EXPECT_DOUBLE_EQ(
      r.online.total_cost(),
      r.online.measured_pages() + r.online.transition_pages());

  // The joint oracle is a genuine lower envelope: no budget-feasible static
  // assignment (same candidate set, free install) beats it.
  for (const JointStaticCandidate& c : r.statics) {
    if (!c.respects_budget) continue;
    EXPECT_GE(c.run.total_cost(), r.oracle.total_cost() * 0.999) << c.label;
  }
}

TEST(JointDriftTraceTest, BudgetBindsAndIsRespectedByEveryOnlineSelection) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();

  // Binding: solved without the budget, the first phase's joint optimum
  // picks a different (bigger) assignment than under it.
  TraceSpec unbudgeted = spec;
  unbudgeted.storage_budget_bytes =
      std::numeric_limits<double>::infinity();
  unbudgeted.has_budget = false;

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();

  const auto solve = [&](const TraceSpec& s) {
    PhysicalParams params = s.catalog.params();
    params.page_size = static_cast<double>(db.pager().page_size());
    Catalog catalog(params);
    std::vector<PathWorkload> workloads;
    for (std::size_t p = 0; p < s.paths.size(); ++p) {
      std::set<ClassId> scope;
      const std::vector<ClassId> scope_vec =
          s.paths[p].path.Scope(s.schema);
      scope.insert(scope_vec.begin(), scope_vec.end());
      RefreshStatistics(db.store(), s.schema, s.paths[p].path, scope,
                        &catalog);
      PathWorkload w;
      w.name = s.paths[p].id;
      w.path = s.paths[p].path;
      w.load = s.phases[0].mixes[p];
      workloads.push_back(std::move(w));
    }
    AdvisorOptions advisor_options;
    advisor_options.orgs = s.options.orgs;
    CandidatePool pool =
        CandidatePool::Build(s.schema, catalog, workloads, advisor_options)
            .value();
    JointOptions joint_options;
    joint_options.storage_budget_bytes = s.storage_budget_bytes;
    return SelectJointConfiguration(pool, joint_options).value();
  };

  const JointSelectionResult budgeted = solve(spec);
  const JointSelectionResult free_solve = solve(unbudgeted);
  EXPECT_LE(budgeted.total_storage_bytes, spec.storage_budget_bytes + 1e-6);
  EXPECT_GT(free_solve.total_storage_bytes, spec.storage_budget_bytes);
  bool differs = false;
  for (std::size_t p = 0; p < budgeted.per_path.size(); ++p) {
    if (!(budgeted.per_path[p].config == free_solve.per_path[p].config)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs) << "the shipped budget does not bind";
}

TEST(JointDriftTraceTest, NoSwitchCommitsOnCostNoise) {
  // Two assignments that differ only in how a path splits into all-NONE
  // parts cost the same up to summation order, and switching between them
  // is free. The controller must hold on such float noise (savings within
  // the solver's tie tolerance) instead of flipping A -> B -> A.
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();
  JointReconfigurationController controller(&db, TraceControllerOptions(spec));
  db.SetObserver(&controller);
  double total_cost = 0;
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    total_cost += driver.RunPhase(i, &controller).phase.total_cost();
  }
  db.SetObserver(nullptr);
  CheckOk(controller.status());

  EXPECT_EQ(controller.events_committed(), 5u);
  for (const JointReconfigurationEvent& ev : controller.events()) {
    EXPECT_FALSE(ev.transition.total() == 0 &&
                 ev.predicted_savings_per_op <= kCostEps)
        << "noise switch at op " << ev.op_index;
  }
  // The dropped flips changed nothing physical: the run costs what it cost
  // with them (measured pages + modeled transition charges).
  EXPECT_DOUBLE_EQ(total_cost, 51201.0);
}

}  // namespace
}  // namespace pathix
