// On a stationary single-path trace the online controller converges to
// exactly the configuration the paper's offline optimizer (SelectDP) picks
// for the true loads, and never reconfigures again (no thrashing).

#include <gtest/gtest.h>

#include "online/joint_experiment.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

// A stationary two-phase trace (both phases share one mix): queries w.r.t.
// Person dominate, with a trickle of balanced churn so statistics stay put.
constexpr const char* kStationarySpec = R"(
class Person            5000 1500 1 64
class Vehicle           300  250  3 64
class Company           40   40   3 64
class Division          40   40   1 64

ref Person  owns Vehicle  multi
ref Vehicle man  Company  multi
ref Company divs Division multi
attr Division name string

path Person owns man divs name
orgs MX MIX NIX NONE

populate Person   4000 0  1.0
populate Vehicle  300  0  2.0
populate Company  40   0  3.0
populate Division 40   40 1.0
trace_seed 271828

phase steady1 2500
mix Person   0.80 0.02 0.02
mix Division 0.16 0.0  0.0

phase steady2 2500
mix Person   0.80 0.02 0.02
mix Division 0.16 0.0  0.0
)";

TEST(ConvergenceTest, StationaryTraceConvergesToOfflinePickAndNeverThrashes) {
  Result<TraceSpec> parsed = ParseTraceSpec(kStationarySpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_EQ(spec.paths.size(), 1u);
  const Path& path = spec.paths[0].path;

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});  // registers the path
  driver.Populate();

  const ControllerOptions options = TraceControllerOptions(spec);
  JointReconfigurationController controller(&db, options);
  db.SetObserver(&controller);
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    driver.RunPhase(i, &controller);
  }
  db.SetObserver(nullptr);
  CheckOk(controller.status());

  // Exactly one event: the initial install. No reconfiguration ever after.
  ASSERT_EQ(controller.events().size(), 1u);
  EXPECT_TRUE(controller.events()[0].initial);

  // ... and it is the offline advisor's pick for the true (stationary)
  // loads on the live data.
  ASSERT_TRUE(db.has_indexes());
  Result<OptimizeResult> offline = OfflineOptimum(
      db, path, spec.options.orgs, spec.phases[0].mix());
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  EXPECT_EQ(db.physical().config(), offline.value().config)
      << "online: " << db.physical().config().ToString()
      << " offline: " << offline.value().config.ToString();

  // The controller kept checking (drift checks ran) — it just had no
  // reason to act: savings never beat the hysteresis-weighted transition.
  EXPECT_GT(controller.checks_run(), 3u);

  // Adaptive cadence: with no reconfiguration to show for its checks the
  // controller backed off all the way to the interval cap, so the
  // stationary tail cost far fewer solver calls than the base schedule
  // (5000 ops / 256 would be ~19 checks).
  EXPECT_EQ(controller.cadence().current_interval(),
            options.check_interval_ops *
                static_cast<std::uint64_t>(options.cadence_max_factor));
  EXPECT_LT(controller.checks_run(), 12u);

  // Scoped ANALYZE: the balanced trickle of churn never moved any class
  // past the 10% refresh threshold — after the first full collection, no
  // class was ever re-analyzed.
  EXPECT_EQ(controller.analyzer().refreshes(), 1u);
  CheckOk(db.ValidateIndexesDeep());
}

}  // namespace
}  // namespace pathix
