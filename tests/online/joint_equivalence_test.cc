// Satellite acceptance: the JointReconfigurationController with one path
// and no storage budget is the *identical* control loop as the single-path
// ReconfigurationController — same drift checks, same selections, same
// hysteresis decisions, same event log — on the same trace.

#include <gtest/gtest.h>

#include <cmath>

#include "online/experiment.h"
#include "online/joint_experiment.h"

namespace pathix {
namespace {

TEST(JointEquivalenceTest, OnePathNoBudgetMatchesSinglePathController) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_EQ(spec.paths.size(), 1u);
  ASSERT_FALSE(spec.has_budget);

  ControllerOptions options;
  options.orgs = spec.options.orgs;
  options.physical_params = spec.catalog.params();

  // Single-path controller run.
  std::vector<ReconfigurationEvent> single_events;
  std::uint64_t single_checks = 0;
  double single_charged = 0;
  {
    SimDatabase db(spec.schema, spec.catalog.params());
    TraceReplayer replayer(&db, spec);
    replayer.Populate();
    ReconfigurationController controller(&db, spec.paths[0].path, options,
                                         spec.paths[0].id);
    db.SetObserver(&controller);
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      replayer.RunPhase(i, &controller);
    }
    db.SetObserver(nullptr);
    CheckOk(controller.status());
    single_events = controller.events();
    single_checks = controller.checks_run();
    single_charged = controller.transition_pages_charged();
  }

  // Joint controller run on the same trace (degenerate: one path, no
  // budget).
  std::vector<JointReconfigurationEvent> joint_events;
  std::uint64_t joint_checks = 0;
  double joint_charged = 0;
  {
    SimDatabase db(spec.schema, spec.catalog.params());
    TraceReplayer replayer(&db, spec);
    replayer.Populate();
    JointReconfigurationController controller(&db, options);
    db.SetObserver(&controller);
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      replayer.RunPhase(i, &controller);
    }
    db.SetObserver(nullptr);
    CheckOk(controller.status());
    joint_events = controller.events();
    joint_checks = controller.checks_run();
    joint_charged = controller.transition_pages_charged();
  }

  // Identical control behaviour: same drift checks, same committed events
  // at the same operations, installing the same configurations.
  EXPECT_EQ(single_checks, joint_checks);
  ASSERT_EQ(single_events.size(), joint_events.size());
  ASSERT_GE(single_events.size(), 2u);  // install + at least one switch
  for (std::size_t i = 0; i < single_events.size(); ++i) {
    const ReconfigurationEvent& s = single_events[i];
    const JointReconfigurationEvent& j = joint_events[i];
    EXPECT_EQ(s.op_index, j.op_index) << "event " << i;
    EXPECT_EQ(s.initial, j.initial) << "event " << i;
    ASSERT_EQ(j.changes.size(), 1u) << "event " << i;
    EXPECT_EQ(j.changes[0].path, spec.paths[0].id);
    EXPECT_EQ(s.from, j.changes[0].from) << "event " << i;
    EXPECT_EQ(s.to, j.changes[0].to) << "event " << i;
    EXPECT_NEAR(s.transition.total(), j.transition.total(), 1e-6)
        << "event " << i;
    EXPECT_NEAR(s.measured.total(), j.measured.total(), 1e-6)
        << "event " << i;
    if (s.initial) {
      // Both controllers gate the install against the same priced status
      // quo (measured naive-scan pages per operation).
      EXPECT_NEAR(s.predicted_savings_per_op, j.predicted_savings_per_op,
                  1e-9)
          << "event " << i;
      EXPECT_GT(s.predicted_savings_per_op, 0.0);
    }
  }
  EXPECT_NEAR(single_charged, joint_charged, 1e-6);
}

TEST(TraceControllerOptionsTest, BudgetedSpecCarriesItsBudget) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_TRUE(spec.has_budget);

  ControllerOptions base;
  base.hysteresis = 2.5;
  const ControllerOptions options = TraceControllerOptions(spec, base);
  EXPECT_DOUBLE_EQ(options.storage_budget_bytes, 300000.0);
  EXPECT_EQ(options.orgs, spec.options.orgs);
  EXPECT_DOUBLE_EQ(options.physical_params.page_size,
                   spec.catalog.params().page_size);
  EXPECT_DOUBLE_EQ(options.hysteresis, 2.5);  // the rest of base survives
}

TEST(TraceControllerOptionsTest, UnbudgetedSpecLeavesBudgetOpen) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_FALSE(parsed.value().has_budget);
  EXPECT_TRUE(std::isinf(
      TraceControllerOptions(parsed.value()).storage_budget_bytes));
}

}  // namespace
}  // namespace pathix
