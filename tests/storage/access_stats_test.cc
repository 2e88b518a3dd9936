// AccessStats operator algebra edge cases and ScopedAccessProbe nesting —
// the probe frames are the most annotation-sensitive code in the locking
// layer, so their protocol is pinned here in detail.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "storage/pager.h"

namespace pathix {
namespace {

TEST(AccessStatsAlgebraTest, DifferenceSaturatesInsteadOfWrapping) {
  const AccessStats small{1, 2, 0};
  const AccessStats big{5, 3, 7};
  // A counter that would go negative clamps to zero — deltas between
  // snapshots of one monotone counter set are exact, but subtracting
  // tallies from unrelated frames must not wrap to 2^64-ish garbage.
  EXPECT_EQ(small - big, (AccessStats{0, 0, 0}));
  EXPECT_EQ(big - small, (AccessStats{4, 1, 7}));
  // Saturation is per field, not all-or-nothing.
  EXPECT_EQ((AccessStats{9, 0, 1}) - (AccessStats{3, 4, 0}),
            (AccessStats{6, 0, 1}));
}

TEST(AccessStatsAlgebraTest, DifferenceThenAddDoesNotRoundTripWhenClamped) {
  const AccessStats a{1, 1, 1};
  const AccessStats b{2, 0, 0};
  AccessStats diff = a - b;  // reads clamped: information is lost
  diff += b;
  EXPECT_NE(diff, a);
  EXPECT_EQ(diff, (AccessStats{2, 1, 1}));
}

TEST(AccessStatsAlgebraTest, EqualityComparesAllThreeFields) {
  EXPECT_EQ((AccessStats{1, 2, 3}), (AccessStats{1, 2, 3}));
  EXPECT_NE((AccessStats{1, 2, 3}), (AccessStats{1, 2, 4}));
  EXPECT_NE((AccessStats{1, 2, 3}), (AccessStats{0, 2, 3}));
  // Default-constructed == explicitly zeroed.
  EXPECT_EQ(AccessStats{}, (AccessStats{0, 0, 0}));
}

TEST(AccessStatsAlgebraTest, PartiallyFilledTallyMapsCompareStructurally) {
  // Per-label tally maps are std::map: an *absent* label and a label with
  // an explicit all-zero entry are different maps, even though every
  // per-label count "reads" as zero. Consumers diffing tallies across runs
  // must normalize (drop zero entries) before comparing — pinned here so
  // the footgun is documented behavior, not a surprise.
  std::map<std::string, AccessStats> absent;
  std::map<std::string, AccessStats> zeroed{{"people", AccessStats{}}};
  EXPECT_TRUE(absent != zeroed);
  EXPECT_FALSE(absent == zeroed);

  // Same keys, same stats: equal regardless of insertion order.
  std::map<std::string, AccessStats> x{{"a", {1, 0, 0}}, {"b", {0, 2, 0}}};
  std::map<std::string, AccessStats> y{{"b", {0, 2, 0}}, {"a", {1, 0, 0}}};
  EXPECT_TRUE(x == y);
  // One differing field in one entry breaks equality.
  y["b"].buffer_hits = 1;
  EXPECT_TRUE(x != y);
}

TEST(ScopedAccessProbeNestingTest, CountingInsideExcludedObservesNothing) {
  Pager pager(4096);
  ScopedAccessProbe build(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
  {
    // A counting frame inside an excluded one: the main stats are frozen,
    // so the inner frame's delta is empty while the traffic still lands in
    // the excluded frame's measurement.
    ScopedAccessProbe query(&pager, PageOpKind::kQuery, "people");
    pager.NoteReads(5);
    EXPECT_EQ(query.Delta(), AccessStats{});
  }
  EXPECT_EQ(build.Delta().reads, 5u);
  EXPECT_EQ(pager.tally(PageOpKind::kQuery), AccessStats{});
  EXPECT_EQ(pager.label_tallies().count("people"), 1u);  // entry, all zero
  EXPECT_EQ(pager.label_tallies().at("people"), AccessStats{});
}

TEST(ScopedAccessProbeNestingTest, ThreeDeepExcludedUnwindKeepsEachDelta) {
  Pager pager(4096);
  {
    ScopedAccessProbe a(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
    pager.NoteWrites(1);
    {
      ScopedAccessProbe b(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
      pager.NoteWrites(2);
      {
        ScopedAccessProbe c(&pager, PageOpKind::kOther, {}, /*exclude=*/true);
        pager.NoteWrites(4);
        EXPECT_EQ(c.Delta().writes, 4u);
      }
      pager.NoteWrites(8);
      EXPECT_EQ(b.Delta().writes, 10u);
    }
    pager.NoteWrites(16);
    EXPECT_EQ(a.Delta().writes, 17u);
  }
  EXPECT_EQ(pager.stats(), AccessStats{});
  // Every frame folded its own delta: kBuild got a's and b's, kOther c's.
  EXPECT_EQ(pager.tally(PageOpKind::kBuild).writes, 27u);
  EXPECT_EQ(pager.tally(PageOpKind::kOther).writes, 4u);
}

TEST(ScopedAccessProbeNestingTest, LabeledFramesAccumulateAcrossCloses) {
  Pager pager(4096);
  for (int round = 0; round < 3; ++round) {
    ScopedAccessProbe probe(&pager, PageOpKind::kQuery, "people");
    pager.NoteReads(2);
  }
  {
    ScopedAccessProbe probe(&pager, PageOpKind::kQuery, "fleet");
    pager.NoteReads(1);
  }
  EXPECT_EQ(pager.label_tallies().at("people").reads, 6u);
  EXPECT_EQ(pager.label_tallies().at("fleet").reads, 1u);
  EXPECT_EQ(pager.tally(PageOpKind::kQuery).reads, 7u);
}

TEST(ScopedAccessProbeNestingTest, ExcludedDeltaIsLiveWhileFrameIsOpen) {
  Pager pager(4096);
  ScopedAccessProbe probe(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
  EXPECT_EQ(probe.Delta(), AccessStats{});
  pager.NoteRead(3);
  EXPECT_EQ(probe.Delta().reads, 1u);
  pager.NoteWrite(3);
  EXPECT_EQ(probe.Delta().writes, 1u);
}

TEST(ScopedAccessProbeNestingTest, AccessProbeSpansScopedFrames) {
  Pager pager(4096);
  AccessProbe outer(pager);
  {
    ScopedAccessProbe counting(&pager, PageOpKind::kInsert);
    pager.NoteWrites(2);
  }
  {
    ScopedAccessProbe excluded(&pager, PageOpKind::kBuild, {}, true);
    pager.NoteWrites(100);  // invisible to the main stats
  }
  EXPECT_EQ(outer.Delta().writes, 2u);
  EXPECT_EQ(outer.Delta().reads, 0u);
}

TEST(AccessProbeDeltaTest, DeltaPreservesBufferHits) {
  // Regression: Delta() used to hand-copy reads and writes and silently
  // drop buffer_hits, so every phase driver's delta lost its
  // hit counts whenever the buffer pool was on.
  Pager pager(4096);
  pager.EnableBuffer(2);
  pager.NoteRead(1);  // miss before the probe opens
  AccessProbe probe(pager);
  pager.NoteRead(1);  // hit
  pager.NoteRead(2);  // miss
  const AccessStats d = probe.Delta();
  EXPECT_EQ(d.buffer_hits, 1u);
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.writes, 0u);
  // total() stays reads+writes: hits are the traffic the pool absorbed.
  EXPECT_EQ(d.total(), 1u);
}

TEST(AccessProbeDeltaTest, DeltaSeesWritebacksAsWrites) {
  Pager pager(4096);
  pager.EnableBuffer(1);
  AccessProbe probe(pager);
  pager.NoteWrite(1);  // absorbed: dirties the only frame
  EXPECT_EQ(probe.Delta().writes, 0u);
  pager.NoteRead(2);  // evicts dirty 1 -> one write-back
  const AccessStats d = probe.Delta();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.writes, 1u);
}

}  // namespace
}  // namespace pathix
