// Determinism guard: serving the same .pix trace twice on one worker
// produces byte-identical phase tallies, AccessStats and *decision ledgers*
// (whose commit records carry the configuration changes) — including the
// scoped tallies and the ledger's workload snapshots, which
// must not leak unordered-container iteration order (or wall-clock values)
// into anything observable (the probe plumbing runs on every operation;
// the ledger is captured at every drift check). Every experiment replays
// on this one-worker serve, so its byte-stability is what makes the
// online / oracle / static comparison exact. (scripts/obs_smoke.py pins
// the shipped trace's ledger against examples/ledgers/ across builds.)

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/decision_log.h"
#include "online/decision_record.h"
#include "online/joint_experiment.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Fmt(const AccessStats& s) {
  return std::to_string(s.reads) + "r/" + std::to_string(s.writes) + "w/" +
         std::to_string(s.buffer_hits) + "h";
}

/// One single-threaded serve of the shipped joint trace: online controller
/// only (the costly baselines add nothing to a determinism check). Returns
/// the phase tallies and the serialized ledger plus every pager counter.
std::string ServeOnce(const TraceSpec& spec) {
  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();
  JointReconfigurationController controller(&db, ControllerOptionsFor(spec));
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

  // The serialized decision ledger rides in the same byte-equality pin: a
  // DecisionRecord holds no wall-clock values (determinism contract of
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

TEST(ReplayDeterminismTest, SameTraceTwiceIsByteIdentical) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_GT(spec.paths.size(), 1u);  // the multi-path replay path

  const std::string first = ServeOnce(spec);
  const std::string second = ServeOnce(spec);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // Re-parsing the file must also reproduce the stream (no hidden state in
  // the parsed spec).
  Result<TraceSpec> reparsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(first, ServeOnce(reparsed.value()));
}

}  // namespace
}  // namespace pathix
