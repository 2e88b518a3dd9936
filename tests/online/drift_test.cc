// Acceptance criteria of the online subsystem, on the shipped three-phase
// single-path drift trace: total online page cost (including modeled
// transition charges) beats the best static configuration and stays within
// 2x of the per-phase offline oracle.

#include <gtest/gtest.h>

#include "online/joint_experiment.h"

namespace pathix {
namespace {

TEST(DriftTraceTest, OnlineBeatsBestStaticAndTracksTheOracle) {
  Result<TraceSpec> spec = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().phases.size(), 3u);

  Result<JointExperimentReport> result =
      RunJointOnlineExperiment(spec.value(), ControllerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JointExperimentReport& r = result.value();

  // The drift is real: the oracle changes its configuration across phases,
  // and the online controller actually reconfigured (beyond the initial
  // install) to follow it.
  ASSERT_EQ(r.oracle_configs.size(), 3u);
  EXPECT_FALSE(r.oracle_configs[0] == r.oracle_configs[1]);
  std::size_t switches = 0;
  for (const JointReconfigurationEvent& ev : r.events) {
    if (!ev.initial) ++switches;
  }
  EXPECT_GE(switches, 1u);

  // Acceptance: beat every static choice, stay within 2x of clairvoyance.
  ASSERT_GE(r.best_static_joint, 0);
  ASSERT_GE(r.statics.size(), 2u);  // avg-mix plus distinct phase optima
  EXPECT_LT(r.online.total_cost(), r.best_static_joint_cost());
  EXPECT_LE(r.online_vs_oracle(), 2.0);

  // Transition charges are included in the online total and are not free.
  EXPECT_GT(r.online.transition_pages(), 0.0);
  EXPECT_DOUBLE_EQ(
      r.online.total_cost(),
      r.online.measured_pages() + r.online.transition_pages());

  // The oracle is a genuine lower envelope per phase construction: no
  // static candidate (same candidate set, free install) beats it.
  for (const JointStaticCandidate& c : r.statics) {
    EXPECT_GE(c.run.total_cost(), r.oracle.total_cost() * 0.999);
  }
}

}  // namespace
}  // namespace pathix
