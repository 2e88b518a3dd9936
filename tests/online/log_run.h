// The byte-level serialization of one online run that the determinism and
// golden tests compare: per-phase tallies, the joint controller's event
// log, its serialized decision ledger and every pager counter.

#pragma once

#include <cstdio>
#include <string>

#include "obs/decision_log.h"
#include "online/decision_record.h"
#include "online/joint_experiment.h"
#include "serve/serve_driver.h"

namespace pathix {

inline std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string Fmt(const AccessStats& s) {
  return std::to_string(s.reads) + "r/" + std::to_string(s.writes) + "w/" +
         std::to_string(s.buffer_hits) + "h";
}

inline std::string Fmt(const TransitionCost& t) {
  return Fmt(t.drop_pages) + "+" + Fmt(t.scan_pages) + "+" +
         Fmt(t.write_pages);
}

/// Serves every phase of \p spec on a fresh database from
/// ServeDriver{threads} with a JointReconfigurationController attached
/// (the spec's orgs, physical parameters and budget; every other option
/// at its default) and returns the serialized event log, decision ledger
/// and pager counters. At threads = 1 the result is deterministic.
inline std::string LogRun(const TraceSpec& spec, int threads = 1) {
  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{threads});
  driver.Populate();
  JointReconfigurationController controller(&db,
                                            TraceControllerOptions(spec));
  db.SetObserver(&controller);
  std::string log;
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseReport report = driver.RunPhase(i, &controller).phase;
    log += "phase " + report.name + " ops " + std::to_string(report.ops) +
           " pages " + std::to_string(report.pages) + " transition " +
           Fmt(report.transition_pages) + " measured " +
           Fmt(report.measured_transition_pages) + "\n";
  }
  db.SetObserver(nullptr);
  CheckOk(controller.status());

  for (const JointReconfigurationEvent& ev : controller.events()) {
    log += "event op " + std::to_string(ev.op_index) +
           (ev.initial ? " install" : " switch") + " savings " +
           Fmt(ev.predicted_savings_per_op) + " transition " +
           Fmt(ev.transition) + " measured " + Fmt(ev.measured) + "\n";
    for (const JointReconfigurationEvent::PathChange& change : ev.changes) {
      log += "  " + change.path + " -> " + change.to.ToString() + "\n";
    }
  }

  // A DecisionRecord holds no wall-clock values (determinism contract of
  // online/decision_record.h), so its JSON must reproduce exactly.
  obs::DecisionLog ledger;
  for (const DecisionRecord& rec : controller.decisions()) {
    WriteDecisionRecord(&ledger, rec);
  }
  log += "decisions " + std::to_string(controller.decisions_committed()) +
         "\n" + ledger.str();

  log += "stats " + Fmt(db.pager().stats()) + "\n";
  log += "build " + Fmt(db.registry().cumulative_build_io()) + "\n";
  for (std::size_t k = 0; k < kPageOpKindCount; ++k) {
    log += std::string("tally ") + ToString(static_cast<PageOpKind>(k)) +
           " " + Fmt(db.pager().tally(static_cast<PageOpKind>(k))) + "\n";
  }
  for (const auto& [label, tally] : db.pager().label_tallies()) {
    log += "tally path " + label + " " + Fmt(tally) + "\n";
  }
  return log;
}

}  // namespace pathix
