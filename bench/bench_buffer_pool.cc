// Buffer-pool capacity sweep: hit rate and throughput vs pool size, and
// how far the paper's cold-access model sits from a warm system.
//
// One Example 5.1 database, one deterministic query stream (the Figure 7
// mix), replayed identically under growing CLOCK pools. Capacity 0 is the
// paper's cold model — every touch a charged page access. Because the
// stream is read-only, every capacity sees the exact same touch sequence,
// so the sweep isolates the pool: hit rate must grow monotonically until
// the working set is resident, and the honest-accounting invariant
// hits + reads == cold reads must hold at every size.
//
// The second table replays the same stream under four configurations: the
// cost model (like the paper's) charges one page access per B+-tree node
// visit, while real systems keep hot index levels resident. Its rows show
// how far a warm pool moves each configuration's cost from the cold model,
// and at which pool size the ordering the selection relies on stops
// holding.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"

namespace {

using namespace pathix;

constexpr int kDistinct = 60;
constexpr int kRounds = 20;

struct SweepPoint {
  std::size_t capacity = 0;
  double hit_rate = 0;
  double ops_per_sec = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t hits = 0;
  int queries = 0;
  std::uint64_t evictions = 0;
};

SweepPoint RunSweep(SimDatabase& db, const PaperSetup& setup,
                    std::size_t buffer_pages) {
  db.pager().EnableBuffer(0);  // drop warm state from the previous point
  db.pager().EnableBuffer(buffer_pages);
  db.pager().ResetStats();
  const BufferPoolStats before = db.pager().buffer_pool().GetStats();
  const std::pair<ClassId, int> mix[] = {{setup.person, 6},
                                         {setup.vehicle, 6},
                                         {setup.bus, 1},
                                         {setup.company, 2},
                                         {setup.division, 4}};
  int queries = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [cls, reps] : mix) {
      for (int r = 0; r < reps; ++r) {
        const Key value =
            Key::FromString(EndingValue((round * 19 + queries) % kDistinct));
        CheckOk(db.Query(value, cls, /*include_subclasses=*/true).status());
        ++queries;
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  SweepPoint point;
  point.capacity = buffer_pages;
  const AccessStats stats = db.pager().stats();
  point.reads = stats.reads;
  point.writes = stats.writes;
  point.hits = stats.buffer_hits;
  point.queries = queries;
  point.evictions =
      db.pager().buffer_pool().GetStats().evictions - before.evictions;
  const double touches = static_cast<double>(stats.reads + stats.buffer_hits);
  point.hit_rate =
      touches > 0 ? static_cast<double>(stats.buffer_hits) / touches : 0;
  point.ops_per_sec = seconds > 0 ? queries / seconds : 0;
  return point;
}

}  // namespace

int main() {
  using namespace pathix;

  std::cout << "=== Buffer-pool capacity sweep: hit rate and throughput "
               "(Figure 7 query mix, whole-path MIX) ===\n\n";

  const PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  PathDataGenerator gen(99);
  gen.Populate(&db, setup.path,
               {
                   {setup.division, 100, kDistinct, 1.0},
                   {setup.company, 100, 0, 2.0},
                   {setup.vehicle, 500, 0, 2.0},
                   {setup.bus, 250, 0, 1.0},
                   {setup.truck, 250, 0, 1.0},
                   {setup.person, 10000, 0, 1.0},
               });
  CheckOk(db.ConfigureIndexes(
      setup.path, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}})));

  const std::size_t capacities[] = {0, 8, 32, 128, 512, 2048};
  pathix_bench::BenchJson json("bench_buffer_pool");

  std::printf("  %10s %10s %12s %10s %10s %10s\n", "pool", "hit_rate",
              "ops/sec", "reads", "hits", "evictions");
  std::vector<SweepPoint> points;
  for (const std::size_t cap : capacities) {
    const SweepPoint p = RunSweep(db, setup, cap);
    std::printf("  %10zu %9.1f%% %12.0f %10llu %10llu %10llu\n", p.capacity,
                p.hit_rate * 100, p.ops_per_sec,
                static_cast<unsigned long long>(p.reads),
                static_cast<unsigned long long>(p.hits),
                static_cast<unsigned long long>(p.evictions));
    const std::string slug = "cap" + std::to_string(cap);
    json.Add(slug + "_hit_rate", p.hit_rate);
    json.Add(slug + "_ops_per_sec", p.ops_per_sec);
    points.push_back(p);
  }
  db.pager().EnableBuffer(0);

  // Acceptance checks, enforced here so the CI bench loop (which runs every
  // bench and fails on nonzero exit) catches a regression in either the
  // eviction policy or the accounting.
  int failures = 0;
  const std::uint64_t cold_reads = points.front().reads;
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Honest accounting: the pool absorbs touches, it never loses them.
    if (points[i].reads + points[i].hits != cold_reads) {
      std::fprintf(stderr,
                   "FAIL: cap=%zu reads+hits=%llu != cold reads %llu\n",
                   points[i].capacity,
                   static_cast<unsigned long long>(points[i].reads +
                                                   points[i].hits),
                   static_cast<unsigned long long>(cold_reads));
      ++failures;
    }
    // Bigger pools never hit less on the identical stream.
    if (i > 0 && points[i].hit_rate < points[i - 1].hit_rate) {
      std::fprintf(stderr, "FAIL: hit rate fell from cap=%zu to cap=%zu\n",
                   points[i - 1].capacity, points[i].capacity);
      ++failures;
    }
  }
  json.Add("cold_reads", static_cast<double>(cold_reads));
  json.Add("monotone", failures == 0 ? 1 : 0);
  if (failures == 0) {
    std::cout << "\nhit rate monotone non-decreasing; every capacity "
                 "reconciled reads+hits == cold reads\n";
  }

  // ------------------------------------------- ordering under warm pools
  std::cout << "\n=== Configuration ordering: page accesses per query "
               "(same stream) ===\n\n";
  const IndexConfiguration configs[] = {
      IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                          {Subpath{3, 4}, IndexOrg::kMX}}),
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}}),
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}}),
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMX}}),
  };
  const char* names[] = {"paper optimum (NIX+MX)", "whole-path NIX",
                         "whole-path MIX", "whole-path MX"};
  const char* slugs[] = {"paper_optimum", "whole_nix", "whole_mix",
                         "whole_mx"};
  const std::size_t ordering_caps[] = {0, 16, 128, 1024};
  std::printf("  %-24s %10s %10s %10s %10s\n", "configuration", "cold",
              "buf=16", "buf=128", "buf=1024");
  for (int c = 0; c < 4; ++c) {
    CheckOk(db.ReconfigureIndexes(configs[c]));
    std::printf("  %-24s", names[c]);
    for (const std::size_t cap : ordering_caps) {
      const SweepPoint p = RunSweep(db, setup, cap);
      const double per_query =
          static_cast<double>(p.reads + p.writes) / p.queries;
      std::printf(" %10.2f", per_query);
      json.Add(std::string("order_") + slugs[c] + "_" +
                   (cap == 0 ? std::string("cold")
                             : "buf" + std::to_string(cap)),
               per_query);
    }
    std::printf("\n");
  }
  db.pager().EnableBuffer(0);
  std::cout << "\n(the cold column is what the Section 3 model predicts; a "
               "small pool (16 pages)\n shrinks the constants but keeps the "
               "ordering the selection algorithm relies on;\n once the index "
               "working set is resident (128 pages here) only "
               "record-overflow\n chains remain, which penalizes the "
               "large-record NIX organizations — beyond the\n paper's cold "
               "model)\n";
  json.Write();
  return failures == 0 ? 0 : 1;
}
