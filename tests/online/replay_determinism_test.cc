// Determinism guard: serving the same .pix trace twice from one worker
// thread produces byte-identical event logs, AccessStats and *decision
// ledgers* — including the scoped tallies and the ledger's workload
// snapshots, which must not leak unordered-container iteration order (or
// wall-clock values) into anything observable (the probe plumbing runs on
// every operation; the ledger is captured at every drift check).

#include <gtest/gtest.h>

#include <string>

#include "log_run.h"

namespace pathix {
namespace {

TEST(ReplayDeterminismTest, SameTraceTwiceIsByteIdentical) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_GT(spec.paths.size(), 1u);  // the multi-path replay path

  const std::string first = LogRun(spec);
  const std::string second = LogRun(spec);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // Re-parsing the file must also reproduce the stream (no hidden state in
  // the parsed spec).
  Result<TraceSpec> reparsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(first, LogRun(reparsed.value()));
}

}  // namespace
}  // namespace pathix
