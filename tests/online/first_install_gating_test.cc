// Satellite regression: the first install on an unconfigured path is gated
// by the *priced* status quo — the measured naive-scan pages per operation —
// instead of firing unconditionally on the first drift check.

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "online/joint_controller.h"

namespace pathix {
namespace {

constexpr int kDistinct = 40;

struct Instance {
  Instance() : setup(MakeExample51Setup()), db(setup.schema, PhysicalParams{}) {
    PathDataGenerator gen(2718);
    gen.Populate(&db, setup.path,
                 {
                     {setup.division, 40, kDistinct, 1.0},
                     {setup.company, 40, 0, 3.0},
                     {setup.vehicle, 300, 0, 2.0},
                     {setup.bus, 150, 0, 2.0},
                     {setup.truck, 150, 0, 2.0},
                     {setup.person, 4000, 0, 1.0},
                 });
  }

  void RunNaiveQueries(int n) {
    for (int i = 0; i < n; ++i) {
      CheckOk(db.QueryNaive(Key::FromString(EndingValue(i % kDistinct)),
                            setup.person)
                  .status());
    }
  }

  PaperSetup setup;
  SimDatabase db;
};

ControllerOptions FastOptions() {
  ControllerOptions options;
  options.warmup_ops = 50;
  options.check_interval_ops = 50;
  return options;
}

TEST(FirstInstallGatingTest, ReluctantControllerNeverInstalls) {
  // Before the fix the initial install bypassed hysteresis entirely, so an
  // infinitely-reluctant controller still installed on its first check; now
  // the measured naive cost cannot pay for the build and nothing happens.
  Instance inst;
  inst.db.SetQueryPath(inst.setup.path);
  ControllerOptions options = FastOptions();
  options.hysteresis = 1e18;
  JointReconfigurationController controller(&inst.db, options);
  inst.db.SetObserver(&controller);
  inst.RunNaiveQueries(300);
  inst.db.SetObserver(nullptr);

  CheckOk(controller.status());
  EXPECT_GT(controller.checks_run(), 0u);  // checks ran — and gated
  EXPECT_TRUE(controller.events().empty());
  EXPECT_FALSE(inst.db.has_indexes());
}

TEST(FirstInstallGatingTest, TinyHorizonCannotAmortizeTheBuild) {
  // With one operation of amortization horizon, per-op savings in the tens
  // of pages cannot beat theta x a build transition in the thousands.
  Instance inst;
  inst.db.SetQueryPath(inst.setup.path);
  ControllerOptions options = FastOptions();
  options.horizon_ops = 1;
  JointReconfigurationController controller(&inst.db, options);
  inst.db.SetObserver(&controller);
  inst.RunNaiveQueries(300);
  inst.db.SetObserver(nullptr);

  CheckOk(controller.status());
  EXPECT_TRUE(controller.events().empty());
  EXPECT_FALSE(inst.db.has_indexes());
}

TEST(FirstInstallGatingTest, UpdateOnlyStreamHasNothingToSave) {
  // No query has ever run naively, so the priced status quo is zero pages
  // per operation: there are no savings, and no index is built for a
  // write-only stream (before the fix, the first check installed one).
  Instance inst;
  inst.db.SetQueryPath(inst.setup.path);
  JointReconfigurationController controller(&inst.db, FastOptions());
  inst.db.SetObserver(&controller);
  for (int i = 0; i < 300; ++i) inst.db.Insert(inst.setup.person, {});
  inst.db.SetObserver(nullptr);

  CheckOk(controller.status());
  EXPECT_GT(controller.checks_run(), 0u);
  EXPECT_TRUE(controller.events().empty());
  EXPECT_FALSE(inst.db.has_indexes());
}

TEST(FirstInstallGatingTest, JustifiedInstallCarriesThePricedStatusQuo) {
  // Expensive naive scans against a default controller: the install fires
  // on the first check, and the event records the measured naive cost it
  // was gated against (positive savings) plus the measured transition.
  Instance inst;
  inst.db.SetQueryPath(inst.setup.path);
  JointReconfigurationController controller(&inst.db, FastOptions());
  inst.db.SetObserver(&controller);
  inst.RunNaiveQueries(60);
  inst.db.SetObserver(nullptr);

  CheckOk(controller.status());
  ASSERT_EQ(controller.events().size(), 1u);
  const JointReconfigurationEvent& ev = controller.events()[0];
  EXPECT_TRUE(ev.initial);
  EXPECT_GT(ev.predicted_savings_per_op, 0.0);
  // Measured transition: no drops on a first install, and the registry's
  // build I/O of exactly the installed parts.
  EXPECT_DOUBLE_EQ(ev.measured.drop_pages, 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(ev.measured.scan_pages) +
                static_cast<std::uint64_t>(ev.measured.write_pages),
            inst.db.registry().cumulative_build_io().total());
  EXPECT_GT(controller.measured_transition_pages_charged(), 0.0);
  EXPECT_TRUE(inst.db.has_indexes());
}

}  // namespace
}  // namespace pathix
