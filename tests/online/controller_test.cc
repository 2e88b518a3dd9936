// The online controller on one path + transition cost + physical part
// reuse.

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/analyze.h"
#include "online/joint_controller.h"
#include "online/transition_cost.h"

namespace pathix {
namespace {

constexpr int kDistinct = 40;

/// A populated Example 5.1 database at laptop scale.
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

  PathContext Context(const LoadDistribution& load) const {
    const Catalog catalog = CollectStatistics(db.store(), setup.schema,
                                              setup.path, PhysicalParams{});
    return PathContext::Build(setup.schema, setup.path, catalog, load)
        .value();
  }

  PaperSetup setup;
  SimDatabase db;
};

TEST(TransitionCostTest, UnchangedPartsAreFree) {
  Instance inst;
  const IndexConfiguration config(
      {{Subpath{1, 3}, IndexOrg::kNIX}, {Subpath{4, 4}, IndexOrg::kMX}});
  CheckOk(inst.db.ConfigureIndexes(inst.setup.path, config));
  const PathContext ctx = inst.Context(LoadDistribution{});

  const TransitionCost same = EstimateTransitionCost(
      ctx, inst.db.store(), &inst.db.physical(), config);
  EXPECT_DOUBLE_EQ(same.total(), 0.0);

  // Changing only the tail drops/builds the tail part; the [1,3] NIX stays
  // free even though it is by far the biggest structure.
  const IndexConfiguration retail(
      {{Subpath{1, 3}, IndexOrg::kNIX}, {Subpath{4, 4}, IndexOrg::kMIX}});
  const TransitionCost tail = EstimateTransitionCost(
      ctx, inst.db.store(), &inst.db.physical(), retail);
  EXPECT_GT(tail.total(), 0.0);

  const IndexConfiguration reorg(
      {{Subpath{1, 4}, IndexOrg::kNIX}});
  const TransitionCost full = EstimateTransitionCost(
      ctx, inst.db.store(), &inst.db.physical(), reorg);
  EXPECT_GT(full.drop_pages, tail.drop_pages);
  EXPECT_GT(full.scan_pages, tail.scan_pages);
}

TEST(TransitionCostTest, NonePartsBuildForFree) {
  // NoneIndex materializes nothing (Build only stores a pointer), so a
  // switch *to* "no index" must not be charged a phantom store scan.
  Instance inst;
  const PathContext ctx = inst.Context(LoadDistribution{});
  const IndexConfiguration all_none({{Subpath{1, 4}, IndexOrg::kNone}});
  const TransitionCost from_scratch =
      EstimateTransitionCost(ctx, inst.db.store(), nullptr, all_none);
  EXPECT_DOUBLE_EQ(from_scratch.total(), 0.0);

  CheckOk(inst.db.ConfigureIndexes(
      inst.setup.path, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMX}})));
  const TransitionCost drop_to_none = EstimateTransitionCost(
      ctx, inst.db.store(), &inst.db.physical(), all_none);
  EXPECT_GT(drop_to_none.drop_pages, 0.0);  // the MX pages are freed ...
  EXPECT_DOUBLE_EQ(drop_to_none.scan_pages, 0.0);  // ... nothing is built
  EXPECT_DOUBLE_EQ(drop_to_none.write_pages, 0.0);
}

TEST(TransitionCostTest, FromScratchPricesEveryPart) {
  Instance inst;
  const PathContext ctx = inst.Context(LoadDistribution{});
  const IndexConfiguration config({{Subpath{1, 4}, IndexOrg::kNIX}});
  const TransitionCost cost =
      EstimateTransitionCost(ctx, inst.db.store(), nullptr, config);
  EXPECT_DOUBLE_EQ(cost.drop_pages, 0.0);
  EXPECT_GT(cost.scan_pages, 0.0);
  EXPECT_GT(cost.write_pages, 0.0);
}

TEST(ReconfigureIndexesTest, ReusesIdenticalPartsPhysically) {
  Instance inst;
  CheckOk(inst.db.ConfigureIndexes(
      inst.setup.path,
      IndexConfiguration(
          {{Subpath{1, 3}, IndexOrg::kNIX}, {Subpath{4, 4}, IndexOrg::kMX}})));
  const SubpathIndex* kept = inst.db.physical().indexes()[0];

  CheckOk(inst.db.ReconfigureIndexes(IndexConfiguration(
      {{Subpath{1, 3}, IndexOrg::kNIX}, {Subpath{4, 4}, IndexOrg::kMIX}})));
  // The [1,3] NIX is the same physical object, not a rebuild.
  EXPECT_EQ(inst.db.physical().indexes()[0], kept);
  EXPECT_EQ(inst.db.physical().indexes()[1]->org(), IndexOrg::kMIX);
  CheckOk(inst.db.ValidateIndexesDeep());

  // The reused configuration keeps answering queries and absorbing updates.
  const Result<std::vector<Oid>> indexed =
      inst.db.Query(Key::FromString(EndingValue(3)), inst.setup.person);
  const Result<std::vector<Oid>> naive =
      inst.db.QueryNaive(Key::FromString(EndingValue(3)), inst.setup.person);
  CheckOk(indexed.status());
  CheckOk(naive.status());
  EXPECT_EQ(indexed.value(), naive.value());
}

TEST(ReconfigureIndexesTest, RequiresAConfiguredPath) {
  Instance inst;
  EXPECT_FALSE(
      inst.db
          .ReconfigureIndexes(
              IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMX}}))
          .ok());
}

TEST(ControllerTest, InstallsAfterWarmupAndReportsTheEvent) {
  Instance inst;
  inst.db.SetQueryPath(inst.setup.path);
  ControllerOptions options;
  options.warmup_ops = 50;
  options.check_interval_ops = 50;
  JointReconfigurationController controller(&inst.db, options);
  inst.db.SetObserver(&controller);

  for (int i = 0; i < 50; ++i) {
    CheckOk(inst.db.QueryNaive(Key::FromString(EndingValue(i % kDistinct)),
                               inst.setup.person)
                .status());
  }
  inst.db.SetObserver(nullptr);

  CheckOk(controller.status());
  EXPECT_TRUE(inst.db.has_indexes());
  ASSERT_EQ(controller.events().size(), 1u);
  EXPECT_TRUE(controller.events()[0].initial);
  EXPECT_GT(controller.transition_pages_charged(), 0.0);
  // A pure query load never indexes nothing.
  EXPECT_GT(inst.db.physical().config().degree(), 0);
}

TEST(ControllerTest, EscapesAHandInstalledForeignOrgConfiguration) {
  // The installed configuration uses an organization outside the
  // controller's candidate set ({MX, MIX, NIX} by default); the controller
  // must price it from the model — not a missing pool entry — and then
  // switch away under a query-heavy stream, for which "no index" is by far
  // the worst choice.
  Instance inst;
  CheckOk(inst.db.ConfigureIndexes(
      inst.setup.path,
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNone}})));
  ControllerOptions options;
  options.warmup_ops = 50;
  options.check_interval_ops = 50;
  JointReconfigurationController controller(&inst.db, options);
  inst.db.SetObserver(&controller);
  for (int i = 0; i < 300; ++i) {
    CheckOk(inst.db.Query(Key::FromString(EndingValue(i % kDistinct)),
                          inst.setup.person)
                .status());
  }
  inst.db.SetObserver(nullptr);
  CheckOk(controller.status());
  ASSERT_FALSE(controller.events().empty());
  EXPECT_FALSE(controller.events()[0].initial);  // it was a switch
  bool still_none = false;
  for (const IndexedSubpath& part : inst.db.physical().config().parts()) {
    if (part.org == IndexOrg::kNone) still_none = true;
  }
  EXPECT_FALSE(still_none);
}

TEST(ControllerTest, ScopedAnalyzeRecollectsOnlyDriftedClasses) {
  Instance inst;
  inst.db.SetQueryPath(inst.setup.path);
  JointReconfigurationController controller(&inst.db);

  // First check: the initial collection covers all six scope classes
  // (Person, Vehicle, Bus, Truck, Company, Division).
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().refreshes(), 1u);
  EXPECT_EQ(controller.analyzer().class_collections(), 6u);

  // Nothing moved: the next check re-analyzes nothing at all.
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().refreshes(), 1u);
  EXPECT_EQ(controller.analyzer().class_collections(), 6u);

  // Only Person churns (well past the 10% threshold); the other five
  // classes are untouched and must not be re-analyzed.
  for (int i = 0; i < 1000; ++i) inst.db.Insert(inst.setup.person, {});
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().refreshes(), 2u);
  EXPECT_EQ(controller.analyzer().class_collections(), 7u);

  // Sub-threshold drift on Vehicle (300 live, 10 < 10%) stays scoped out.
  for (int i = 0; i < 10; ++i) inst.db.Insert(inst.setup.vehicle, {});
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().class_collections(), 7u);
}

TEST(ControllerTest, HysteresisBlocksMarginalSwitches) {
  // Two controllers see the same drifting stream; the infinitely-reluctant
  // one must never switch after its initial install.
  for (const bool reluctant : {false, true}) {
    Instance inst;
    inst.db.SetQueryPath(inst.setup.path);
    ControllerOptions options;
    options.warmup_ops = 50;
    options.check_interval_ops = 50;
    options.half_life_ops = 100;
    if (reluctant) {
      options.hysteresis = 1e18;  // nothing can ever pay for itself
    }
    JointReconfigurationController controller(&inst.db, options);
    inst.db.SetObserver(&controller);

    for (int i = 0; i < 400; ++i) {
      CheckOk(inst.db.QueryNaive(Key::FromString(EndingValue(i % kDistinct)),
                                 inst.setup.person)
                  .status());
    }
    // Hard shift to update-heavy traffic on Person.
    for (int i = 0; i < 800; ++i) {
      inst.db.Insert(inst.setup.person, {});
    }
    inst.db.SetObserver(nullptr);

    CheckOk(controller.status());
    std::size_t switches = 0;
    for (const JointReconfigurationEvent& ev : controller.events()) {
      if (!ev.initial) ++switches;
    }
    if (reluctant) {
      EXPECT_EQ(switches, 0u);
    } else {
      EXPECT_GT(switches, 0u);
    }
    CheckOk(inst.db.ValidateIndexesDeep());
  }
}

}  // namespace
}  // namespace pathix
