// The joint controller with one path and no storage budget is the paper's
// single-path online loop: one O(n^2)-recombination re-solve per drift
// check, gated by the same hysteresis rule. Its complete output on the
// shipped single-path drift trace — event log, decision ledger, every
// pager tally — is pinned byte for byte against a golden file. The golden
// was recorded while a separate single-path controller still existed and
// was proven event-for-event identical to it, so it carries that
// equivalence forward.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "log_run.h"

namespace pathix {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(JointEquivalenceTest, OnePathNoBudgetReproducesTheGolden) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_EQ(spec.paths.size(), 1u);
  ASSERT_FALSE(spec.has_budget);

  const std::string golden =
      ReadFile(std::string(PATHIX_SOURCE_DIR) +
               "/tests/online/testdata/vehicle_drift_joint.golden");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(LogRun(spec), golden);
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
