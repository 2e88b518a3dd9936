// The decision ledger: every drift check of the controller lands exactly
// one DecisionRecord — workload snapshot, scored
// candidates with why-not margins, the hysteresis inequality (modeled and,
// after a commit, measured) and the verdict. The serialized form must
// round-trip through the project's own JSON reader with every schema key
// present, and commit verdicts must equal committed reconfigurations.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/decision_log.h"
#include "obs/json_reader.h"
#include "online/decision_record.h"
#include "online/joint_experiment.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

TraceSpec LoadDriftSpec() {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  CheckOk(parsed.status());
  return std::move(parsed).value();
}

/// Invariants of every ledger.
void CheckLedger(const std::vector<DecisionRecord>& decisions,
                 std::uint64_t checks, std::uint64_t committed_events) {
  // One record per drift check, numbered 1..N in op order.
  ASSERT_EQ(decisions.size(), checks);
  std::uint64_t commit_verdicts = 0;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const DecisionRecord& rec = decisions[i];
    EXPECT_EQ(rec.check_number, i + 1);
    EXPECT_EQ(rec.controller, "joint");
    if (i > 0) {
      EXPECT_GE(rec.op_index, decisions[i - 1].op_index);
    }

    if (rec.verdict == "hold") {
      EXPECT_TRUE(rec.hold_reason == "no_traffic" ||
                  rec.hold_reason == "already_optimal" ||
                  rec.hold_reason == "no_savings" ||
                  rec.hold_reason == "hysteresis" ||
                  rec.hold_reason == "error")
          << rec.hold_reason;
      // The measured transition side exists only after a commit.
      EXPECT_FALSE(rec.hysteresis.has_measured);
      if (rec.hold_reason == "hysteresis") {
        EXPECT_TRUE(rec.hysteresis.evaluated);
        EXPECT_FALSE(rec.hysteresis.passed);
        EXPECT_LE(rec.hysteresis.lhs_pages, rec.hysteresis.rhs_modeled_pages);
      }
    } else {
      ASSERT_TRUE(rec.verdict == "install" || rec.verdict == "switch")
          << rec.verdict;
      ++commit_verdicts;
      EXPECT_TRUE(rec.hold_reason.empty());
      // The inequality as committed: evaluated, passed, both sides present.
      EXPECT_TRUE(rec.hysteresis.evaluated);
      EXPECT_TRUE(rec.hysteresis.passed);
      EXPECT_GT(rec.hysteresis.lhs_pages, rec.hysteresis.rhs_modeled_pages);
      EXPECT_TRUE(rec.hysteresis.has_measured);
      EXPECT_GE(rec.hysteresis.rhs_measured_pages, 0);
      if (rec.verdict == "install") {
        EXPECT_TRUE(rec.hysteresis.current_is_measured_naive);
      }
    }

    // Any record that got past the traffic gate snapshots the workload and
    // scores candidates (top-K capture is on by default).
    if (rec.hold_reason != "no_traffic" && rec.hold_reason != "error") {
      EXPECT_FALSE(rec.load.empty()) << "check " << rec.check_number;
      EXPECT_FALSE(rec.naive_pages.empty());
      ASSERT_FALSE(rec.candidates.empty());
      EXPECT_TRUE(rec.candidates.front().chosen);
      for (std::size_t c = 1; c < rec.candidates.size(); ++c) {
        const DecisionCandidate& cand = rec.candidates[c];
        if (cand.chosen) continue;  // one chosen row per path
        EXPECT_FALSE(cand.why_not.empty());
        EXPECT_GE(cand.cost_delta, 0) << "alternatives cannot beat the "
                                         "optimum";
      }
    }
  }
  EXPECT_EQ(commit_verdicts, committed_events);
}

/// The serialized ledger must parse with the project's own reader and carry
/// every schema key (what scripts/obs_smoke.py and pathix_explain check
/// out-of-process, pinned here in-process).
void CheckSerializedRoundTrip(const std::vector<DecisionRecord>& decisions) {
  obs::DecisionLog log;
  for (const DecisionRecord& rec : decisions) WriteDecisionRecord(&log, rec);
  ASSERT_EQ(log.records(), decisions.size());

  std::size_t start = 0;
  std::size_t line_no = 0;
  const std::string& text = log.str();
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // every record is newline-terminated
    Result<obs::JsonValue> parsed =
        obs::ParseJson(text.substr(start, end - start));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const obs::JsonValue& v = parsed.value();
    EXPECT_EQ(v.StringAt("type"), "decision");
    for (const char* key : {"check", "op_index", "controller", "phase",
                            "verdict", "hold_reason", "workload", "search",
                            "candidates", "hysteresis"}) {
      EXPECT_TRUE(v.Has(key)) << key;
    }
    const obs::JsonValue* hyst = v.Find("hysteresis");
    ASSERT_NE(hyst, nullptr);
    // Both sides of the inequality are always present as keys; the
    // measured side is null until a commit.
    for (const char* key : {"lhs_pages", "modeled", "rhs_modeled_pages",
                            "measured", "rhs_measured_pages", "passed"}) {
      EXPECT_TRUE(hyst->Has(key)) << key;
    }
    const DecisionRecord& rec = decisions[line_no];
    EXPECT_EQ(static_cast<std::uint64_t>(hyst->Find("measured")->is_object()),
              static_cast<std::uint64_t>(rec.hysteresis.has_measured));
    EXPECT_EQ(v.Find("candidates")->array().size(), rec.candidates.size());
    start = end + 1;
    ++line_no;
  }
  EXPECT_EQ(line_no, decisions.size());
}

/// Serves every phase of \p spec through ServeDriver{1} with \p controller
/// attached; returns the per-phase ledger slices, concatenated.
std::vector<DecisionRecord> ServeAll(SimDatabase* db, ServeDriver* driver,
                                     const TraceSpec& spec,
                                     JointReconfigurationController* controller) {
  db->SetObserver(controller);
  std::vector<DecisionRecord> phase_sliced;
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseReport report = driver->RunPhase(i, controller).phase;
    // The driver's phase slice is the same records, phase-stamped.
    for (const DecisionRecord& rec : report.decisions) {
      EXPECT_EQ(rec.phase, report.name);
      phase_sliced.push_back(rec);
    }
  }
  db->SetObserver(nullptr);
  CheckOk(controller->status());
  return phase_sliced;
}

TEST(DecisionLedgerTest, ControllerLedgersEveryCheck) {
  const TraceSpec spec = LoadDriftSpec();
  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();
  JointReconfigurationController controller(&db, TraceControllerOptions(spec));
  const std::vector<DecisionRecord> phase_sliced =
      ServeAll(&db, &driver, spec, &controller);

  CheckLedger(controller.decisions(), controller.checks_run(),
              controller.events_committed());
  EXPECT_GT(controller.events_committed(), 0u);
  ASSERT_EQ(phase_sliced.size(), controller.decisions().size());
  CheckSerializedRoundTrip(phase_sliced);

  // Search stats: the B&B/exhaustive effort and the admissible bound land
  // in every solved record.
  std::uint64_t solved = 0;
  for (const DecisionRecord& rec : controller.decisions()) {
    if (rec.hold_reason == "no_traffic" || rec.hold_reason == "error") {
      continue;
    }
    ++solved;
    EXPECT_GT(rec.search.pool_entries, 0);
    EXPECT_GT(rec.search.configs_enumerated, 0);
    EXPECT_GT(rec.search.nodes_explored, 0);
    EXPECT_GE(rec.search.bound_gap, -1e-9);
  }
  EXPECT_GT(solved, 0u);

  // The search-effort counters fed at each drift check: one re-solve
  // duration per solved check.
  const obs::MetricsSnapshot m = db.metrics().Snapshot();
  EXPECT_GT(m.Value("pathix_advisor_nodes_explored_total",
                    {{"controller", "joint"}}),
            0);
  const obs::MetricSample* resolve = m.Find(
      "pathix_advisor_resolve_duration_us", {{"controller", "joint"}});
  ASSERT_NE(resolve, nullptr);
  EXPECT_EQ(resolve->histogram.count, solved);
}

TEST(DecisionLedgerTest, LedgerRingBufferBoundsRetention) {
  const TraceSpec spec = LoadDriftSpec();
  ControllerOptions options = TraceControllerOptions(spec);
  options.max_decision_log = 3;

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();
  JointReconfigurationController controller(&db, options);
  ServeAll(&db, &driver, spec, &controller);

  ASSERT_GT(controller.checks_run(), 3u);
  EXPECT_EQ(controller.decisions().size(), 3u);
  EXPECT_EQ(controller.decisions_committed(), controller.checks_run());
  EXPECT_EQ(controller.decisions_evicted(), controller.checks_run() - 3);
  // The retained suffix is the newest checks.
  EXPECT_EQ(controller.decisions().back().check_number,
            controller.checks_run());
}

TEST(DecisionLedgerTest, TopKZeroKeepsRecordsButSkipsAlternatives) {
  const TraceSpec spec = LoadDriftSpec();
  ASSERT_EQ(spec.paths.size(), 1u);
  ControllerOptions options = TraceControllerOptions(spec);
  options.decision_top_k = 0;

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();
  JointReconfigurationController controller(&db, options);
  ServeAll(&db, &driver, spec, &controller);

  EXPECT_EQ(controller.decisions().size(), controller.checks_run());
  for (const DecisionRecord& rec : controller.decisions()) {
    if (rec.hold_reason == "no_traffic") continue;
    // The chosen candidate (one path: one row) is always recorded; top-K
    // alternatives are off.
    ASSERT_EQ(rec.candidates.size(), 1u);
    EXPECT_TRUE(rec.candidates.front().chosen);
  }
}

}  // namespace
}  // namespace pathix
