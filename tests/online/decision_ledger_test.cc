// The decision ledger: every drift check of the controller lands exactly
// one DecisionRecord — workload snapshot, scored candidates with why-not
// margins, the hysteresis inequality (modeled and, after a commit,
// measured), the verdict and a commit's configuration changes. The
// serialized form must round-trip through the project's own JSON reader
// with every schema key present, and commit verdicts must equal committed
// reconfigurations.

#include <gtest/gtest.h>

#include <map>
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

/// Invariants of the controller's (unevicted) ledger, held in any
/// random-access range of records.
template <typename Records>
void CheckLedger(const Records& decisions, std::uint64_t checks,
                 std::uint64_t commits) {
  // One record per drift check, numbered 1..N in op order.
  ASSERT_EQ(decisions.size(), checks);
  std::uint64_t commit_verdicts = 0;
  // Per path, the configuration the latest commit left installed.
  std::map<std::string, std::string> installed;
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
      // The measured transition side and the changes exist only after a
      // commit.
      EXPECT_FALSE(rec.hysteresis.has_measured);
      EXPECT_TRUE(rec.changes.empty());
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
      // Each change moves a path from what the previous commit of that
      // path left ("{}" before its first) to something else.
      EXPECT_FALSE(rec.changes.empty());
      for (const DecisionChange& change : rec.changes) {
        const auto it = installed.find(change.path);
        EXPECT_EQ(change.from, it == installed.end() ? "{}" : it->second)
            << "check " << rec.check_number;
        EXPECT_NE(change.from, change.to);
        installed[change.path] = change.to;
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
        if (cand.chosen) continue;  // several chosen rows: one per path
        EXPECT_FALSE(cand.why_not.empty());
        EXPECT_GE(cand.cost_delta, 0) << "alternatives cannot beat the "
                                         "optimum";
      }
    }
  }
  EXPECT_EQ(commit_verdicts, commits);
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
                            "verdict", "hold_reason", "changes", "workload",
                            "search", "candidates", "hysteresis"}) {
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
    EXPECT_EQ(v.Find("changes")->array().size(), rec.changes.size());
    start = end + 1;
    ++line_no;
  }
  EXPECT_EQ(line_no, decisions.size());
}

/// The drift trace, served on one worker.
struct DriftRun {
  explicit DriftRun(const TraceSpec& trace)
      : spec(&trace),
        db(trace.schema, trace.catalog.params()),
        driver(&db, trace, ServeOptions{1}) {
    driver.Populate();
  }

  /// Serves every phase with \p controller attached.
  std::vector<PhaseReport> ServeAll(
      JointReconfigurationController* controller) {
    std::vector<PhaseReport> reports;
    db.SetObserver(controller);
    for (std::size_t i = 0; i < spec->phases.size(); ++i) {
      reports.push_back(driver.RunPhase(i, controller).phase);
    }
    db.SetObserver(nullptr);
    CheckOk(controller->status());
    return reports;
  }

  const TraceSpec* spec;
  SimDatabase db;
  ServeDriver driver;
};

TEST(DecisionLedgerTest, JointControllerLedgersEveryCheck) {
  const TraceSpec spec = LoadDriftSpec();
  ASSERT_EQ(spec.paths.size(), 1u);
  DriftRun run(spec);
  JointReconfigurationController controller(&run.db,
                                            ControllerOptionsFor(spec));
  std::vector<DecisionRecord> phase_sliced;
  for (const PhaseReport& report : run.ServeAll(&controller)) {
    // The driver's phase slice is the same records, phase-stamped.
    for (const DecisionRecord& rec : report.decisions) {
      EXPECT_EQ(rec.phase, report.name);
      phase_sliced.push_back(rec);
    }
  }

  CheckLedger(controller.decisions(), controller.checks_run(),
              controller.events_committed());
  EXPECT_GT(controller.events_committed(), 0u);
  ASSERT_EQ(phase_sliced.size(), controller.decisions().size());
  CheckSerializedRoundTrip(phase_sliced);

  // Joint search stats: the B&B/exhaustive effort and the admissible bound
  // land in every solved record.
  bool saw_solved = false;
  std::uint64_t unsolved = 0;
  for (const DecisionRecord& rec : controller.decisions()) {
    if (rec.hold_reason == "no_traffic" || rec.hold_reason == "error") {
      ++unsolved;
      continue;
    }
    saw_solved = true;
    EXPECT_GT(rec.search.pool_entries, 0);
    EXPECT_GT(rec.search.configs_enumerated, 0);
    EXPECT_GT(rec.search.nodes_explored, 0);
    EXPECT_GE(rec.search.bound_gap, -1e-9);
  }
  EXPECT_TRUE(saw_solved);

  // The search-effort counters fed at each drift check that reached the
  // solver.
  const obs::MetricsSnapshot m = run.db.metrics().Snapshot();
  EXPECT_GT(m.Value("pathix_advisor_nodes_explored_total",
                    {{"controller", "joint"}}),
            0);
  const obs::MetricSample* resolve = m.Find(
      "pathix_advisor_resolve_duration_us", {{"controller", "joint"}});
  ASSERT_NE(resolve, nullptr);
  EXPECT_EQ(resolve->histogram.count, controller.checks_run() - unsolved);
}

TEST(DecisionLedgerTest, LedgerRingBufferBoundsRetention) {
  const TraceSpec spec = LoadDriftSpec();
  ControllerOptions options = ControllerOptionsFor(spec);
  options.max_decision_log = 3;

  DriftRun run(spec);
  JointReconfigurationController controller(&run.db, options);
  run.ServeAll(&controller);

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
  ControllerOptions options = ControllerOptionsFor(spec);
  options.decision_top_k = 0;

  DriftRun run(spec);
  JointReconfigurationController controller(&run.db, options);
  run.ServeAll(&controller);

  EXPECT_EQ(controller.decisions().size(), controller.checks_run());
  for (const DecisionRecord& rec : controller.decisions()) {
    if (rec.hold_reason == "no_traffic") continue;
    // The chosen candidate is always recorded; top-K alternatives are off.
    ASSERT_EQ(rec.candidates.size(), 1u);
    EXPECT_TRUE(rec.candidates.front().chosen);
  }
}

}  // namespace
}  // namespace pathix
