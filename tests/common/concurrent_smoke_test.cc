// The first genuinely multi-threaded code in the repo: a deliberately tiny
// hammer over the two shared-state hot spots the annotated locking layer
// protects — Pager accounting and PhysicalPartRegistry acquire/release —
// plus the WorkloadMonitor's decayed counters and the ObjectStore's maps.
// Run it under -fsanitize=thread (cmake -DPATHIX_SANITIZE=thread): TSan is
// the dynamic backstop for what Clang's -Wthread-safety proves statically.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"
#include "index/part_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/workload_monitor.h"
#include "storage/pager.h"

namespace pathix {
namespace {

constexpr int kThreads = 4;

void RunInParallel(int threads, const std::function<void(int)>& body) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (std::thread& th : pool) th.join();
}

TEST(ConcurrentSmokeTest, PagerAccountingFromManyThreads) {
  constexpr std::uint64_t kOpsPerThread = 5000;
  Pager pager(4096);
  RunInParallel(kThreads, [&pager](int t) {
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      const PageId page = pager.Allocate();
      pager.NoteWrite(page);
      pager.NoteRead(page);
      if (i % 16 == 0) pager.NoteReads(2);
      (void)pager.stats();  // concurrent snapshot reads
      (void)t;
    }
  });
  const AccessStats stats = pager.stats();
  EXPECT_EQ(pager.allocated_pages(), kThreads * kOpsPerThread);
  EXPECT_EQ(stats.writes, kThreads * kOpsPerThread);
  EXPECT_EQ(stats.reads,
            kThreads * (kOpsPerThread + 2 * ((kOpsPerThread + 15) / 16)));
  EXPECT_EQ(stats.buffer_hits, 0u);
}

TEST(ConcurrentSmokeTest, PagerBufferPoolUnderContention) {
  constexpr std::uint64_t kOpsPerThread = 5000;
  Pager pager(4096);
  pager.EnableBuffer(8);
  // All threads hammer the same tiny page set: every access is either a
  // counted read or a buffer hit, never lost.
  std::vector<PageId> pages;
  pages.reserve(4);
  for (int i = 0; i < 4; ++i) pages.push_back(pager.Allocate());
  RunInParallel(kThreads, [&pager, &pages](int t) {
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      pager.NoteRead(pages[(t + i) % pages.size()]);
    }
  });
  const AccessStats stats = pager.stats();
  EXPECT_EQ(stats.reads + stats.buffer_hits, kThreads * kOpsPerThread);
  EXPECT_GT(stats.buffer_hits, 0u);
}

TEST(ConcurrentSmokeTest, BufferPoolHammerReconcilesExactly) {
  // Four threads drive a sharded pool (512 frames -> 8 latched shards)
  // through the full frame life cycle at once: hot hits, cold misses that
  // force CLOCK sweeps, dirty frames, pins held across cross-traffic, and
  // a final flush. Accounting must reconcile exactly — a lost or
  // double-counted touch anywhere in the latched fast path shows up here.
  constexpr std::uint64_t kOpsPerThread = 4000;
  constexpr PageId kPageSpan = 2048;
  Pager pager(4096);
  pager.EnableBuffer(512);
  std::atomic<std::uint64_t> read_touches{0};
  std::atomic<std::uint64_t> write_touches{0};
  RunInParallel(kThreads, [&](int t) {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      // Skewed page choice: a small hot set yields hits, the wide tail
      // forces evictions through every shard.
      const PageId page = static_cast<PageId>(
          (i % 8 == 0) ? (i * 37 + static_cast<std::uint64_t>(t) * 911) %
                             kPageSpan
                       : (i * 13 + static_cast<std::uint64_t>(t)) % 64);
      if (i % 5 == 4) {
        pager.NoteWrite(page);
        ++writes;
      } else if (i % 7 == 3) {
        PageGuard guard = pager.PinRead(page);
        ++reads;
        pager.NoteRead((page + 1) % kPageSpan);  // traffic while pinned
        ++reads;
        guard.Release();
      } else {
        pager.NoteRead(page);
        ++reads;
      }
      if (i % 512 == 0) (void)pager.stats();  // concurrent snapshots
    }
    read_touches += reads;
    write_touches += writes;
  });
  pager.EnableBuffer(0);  // surface every remaining dirty frame
  const AccessStats stats = pager.stats();
  const BufferPoolStats pool = pager.buffer_pool().GetStats();
  // Honest read accounting: every touch is exactly one hit or one charged
  // read, and the pager's view agrees with the pool's.
  EXPECT_EQ(stats.reads + stats.buffer_hits, read_touches.load());
  EXPECT_EQ(stats.buffer_hits, pool.read_hits);
  EXPECT_EQ(stats.reads, pool.read_misses);
  EXPECT_EQ(pool.read_hits + pool.read_misses, read_touches.load());
  EXPECT_EQ(pool.write_hits + pool.write_misses, write_touches.load());
  // Write-back collapses repeats but never invents writes: after the
  // flush, total charged writes cannot exceed the write touches.
  EXPECT_LE(stats.writes, write_touches.load());
  EXPECT_GT(stats.writes, 0u);
  EXPECT_GT(stats.buffer_hits, 0u);
  EXPECT_GT(pool.evictions, 0u);
  EXPECT_GT(pool.writebacks, 0u);
}

/// A populated Example 5.1 database (small) whose store backs concurrent
/// registry builds.
struct SmokeInstance {
  SmokeInstance() : setup(MakeExample51Setup()), db(setup.schema, {}) {
    CheckOk(db.RegisterPath("people", setup.path));
    PathDataGenerator gen(1234);
    gen.Populate(&db, {&setup.path},
                 {
                     {setup.division, 8, 4, 1.0},
                     {setup.company, 8, 0, 2.0},
                     {setup.vehicle, 40, 0, 2.0},
                     {setup.person, 200, 0, 1.0},
                 });
  }

  PaperSetup setup;
  SimDatabase db;
};

TEST(ConcurrentSmokeTest, RegistryAcquireReleaseFromManyThreads) {
  constexpr int kRounds = 50;
  SmokeInstance inst;
  PhysicalPartRegistry registry;
  const IndexedSubpath shared{{1, 4}, IndexOrg::kNIX};
  const StructuralKey shared_key =
      StructuralKey::ForSubpath(inst.setup.path, 1, 4, IndexOrg::kNIX);
  // Per-thread distinct parts: each thread also churns its own single-level
  // MX part so builds and releases interleave with the shared key's.
  const IndexOrg own_orgs[kThreads] = {IndexOrg::kMX, IndexOrg::kNIX,
                                       IndexOrg::kMIX, IndexOrg::kMX};
  RunInParallel(kThreads, [&](int t) {
    const IndexedSubpath own{{t % 2 + 1, t % 2 + 1}, own_orgs[t]};
    for (int i = 0; i < kRounds; ++i) {
      auto a = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                inst.setup.path, shared, inst.db.store());
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_NE(a.value()->index, nullptr);
      auto b = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                inst.setup.path, own, inst.db.store());
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      // Concurrent holders of the same key share one structure.
      auto again = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                    inst.setup.path, shared, inst.db.store());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(a.value().get(), again.value().get());
      (void)registry.live_parts();
      (void)registry.cumulative_build_io();
    }
  });
  // Everything was released on scope exit; the registry holds only weak
  // references, and every build was accounted.
  EXPECT_EQ(registry.use_count(shared_key), 0);
  EXPECT_EQ(registry.live_parts(), 0u);
  EXPECT_GT(registry.parts_built(), 0u);
  EXPECT_GT(registry.cumulative_build_io().total(), 0u);
}

TEST(ConcurrentSmokeTest, RegistryBuildsSharedKeyOnceWhileHeld) {
  SmokeInstance inst;
  PhysicalPartRegistry registry;
  const IndexedSubpath shared{{1, 4}, IndexOrg::kNIX};
  // All threads race to acquire the same key and keep it alive until after
  // the join: exactly one build may happen.
  std::vector<std::shared_ptr<PhysicalPart>> held(kThreads);
  RunInParallel(kThreads, [&](int t) {
    auto part = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                 inst.setup.path, shared, inst.db.store());
    ASSERT_TRUE(part.ok());
    held[static_cast<std::size_t>(t)] = std::move(part).value();
  });
  EXPECT_EQ(registry.parts_built(), 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(held[0].get(), held[t].get());
  held.clear();
  EXPECT_EQ(registry.live_parts(), 0u);
}

TEST(ConcurrentSmokeTest, WorkloadMonitorObserveAndEstimate) {
  constexpr std::uint64_t kOpsPerThread = 2000;
  WorkloadMonitor monitor(/*half_life_ops=*/256);
  RunInParallel(kThreads, [&monitor](int t) {
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      switch (i % 3) {
        case 0:
          monitor.Observe(DbOpKind::kQuery, static_cast<ClassId>(t));
          break;
        case 1:
          monitor.Observe(DbOpKind::kInsert, static_cast<ClassId>(t));
          break;
        default:
          monitor.Observe(DbOpKind::kDelete, static_cast<ClassId>(t));
          break;
      }
      if (i % 64 == 0) {
        (void)monitor.EstimatedLoadFor("", {static_cast<ClassId>(t)});
        (void)monitor.MeasuredNaiveQueryPagesPerOp("");
      }
    }
  });
  EXPECT_EQ(monitor.ops_observed(), kThreads * kOpsPerThread);
  EXPECT_GT(monitor.DecayedTotal(), 0.0);
}

TEST(ConcurrentSmokeTest, MetricsRegistryFromManyThreads) {
  constexpr std::uint64_t kOpsPerThread = 4000;
  obs::MetricsRegistry registry;
  RunInParallel(kThreads, [&registry](int t) {
    // Handles resolve through the registry map concurrently; updates go
    // through the per-metric leaf mutexes. Every count must land.
    obs::Counter& shared = registry.CounterAt("hammer_total");
    obs::Counter& own =
        registry.CounterAt("hammer_total",
                           {{"thread", std::to_string(t)}});
    obs::Histogram& lat = registry.HistogramAt("hammer_latency_us");
    obs::Gauge& gauge = registry.GaugeAt("hammer_gauge");
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      shared.Increment();
      own.Increment();
      lat.Observe(static_cast<double>(i % 1000));
      gauge.Set(static_cast<double>(i));
      if (i % 256 == 0) (void)registry.Snapshot();  // concurrent exports
    }
  });
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("hammer_total"),
            static_cast<double>(kThreads * kOpsPerThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.Value("hammer_total", {{"thread", std::to_string(t)}}),
              static_cast<double>(kOpsPerThread));
  }
  const obs::MetricSample* lat = snap.Find("hammer_latency_us", {});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.count, kThreads * kOpsPerThread);
}

TEST(ConcurrentSmokeTest, TracerSpansFromManyThreads) {
  constexpr int kSpansPerThread = 500;
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  RunInParallel(kThreads, [&tracer](int t) {
    for (int i = 0; i < kSpansPerThread; ++i) {
      obs::ObsSpan outer(&tracer, "outer", "test");
      outer.AddArg("i", static_cast<double>(i));
      obs::ObsSpan inner(&tracer, "inner", "test");
      (void)t;
      if (i % 128 == 0) (void)tracer.Snapshot();
    }
  });
  tracer.SetEnabled(false);
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 4));
  // Per thread, the interleaved stream must still be a valid span stack:
  // every E matches the name of the B on top of its thread's stack.
  std::map<int, std::vector<const obs::TraceEvent*>> stacks;
  for (const obs::TraceEvent& e : events) {
    std::vector<const obs::TraceEvent*>& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(&e);
      continue;
    }
    ASSERT_EQ(e.phase, 'E');
    ASSERT_FALSE(stack.empty()) << "unmatched end on tid " << e.tid;
    EXPECT_EQ(stack.back()->name, e.name);
    stack.pop_back();
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(ConcurrentSmokeTest, ObjectStoreReadersAlongsideWriter) {
  SmokeInstance inst;
  ObjectStore& store = inst.db.store();
  const ClassId person = inst.setup.person;
  const std::size_t before = store.LiveCount(person);
  std::thread writer([&inst, person] {
    for (int i = 0; i < 500; ++i) {
      inst.db.Insert(person, {{"name", {Value::Str("extra")}}});
    }
  });
  RunInParallel(kThreads - 1, [&store, person](int) {
    for (int i = 0; i < 500; ++i) {
      (void)store.PeekAll(person);
      (void)store.LiveCount(person);
      (void)store.SegmentPages(person);
      (void)store.live_objects();
    }
  });
  writer.join();
  EXPECT_EQ(store.LiveCount(person), before + 500);
}

}  // namespace
}  // namespace pathix
