#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/decision_log.h"
#include "online/transition_cost.h"
#include "workload/load.h"

/// \file decision_record.h
/// \brief The decision ledger: one structured record per drift check of the
/// online controller (online/joint_controller.h) — what the workload looked
/// like, what the solver searched, which candidates it scored and why they
/// lost, how the hysteresis inequality evaluated (modeled and measured
/// sides), the verdict (install / switch / hold) and a commit's per-path
/// configuration changes.
///
/// The paper's contribution is a cost-model-driven *choice*; the ledger is
/// the audit trail of every such choice the online stack makes. AIM (Meta,
/// PAPERS.md) argues production index automation lives or dies on
/// verifiable decision records — the ROADMAP's rollback loop will replay
/// these verdicts against measured reality.
///
/// Determinism contract: a DecisionRecord contains *no wall-clock values*
/// (solve durations go to the metrics histograms instead), so the decision
/// portion of a ledger is byte-identical across replays of the same trace —
/// pinned by replay_determinism_test. Anything unordered (load entries) is
/// sorted before capture.

namespace pathix {

class Schema;

/// One (path, class) row of the workload-estimate snapshot, rendered with
/// names so the ledger is self-contained.
struct DecisionLoadEntry {
  std::string path;        ///< path id
  std::string cls;         ///< class name
  double query = 0;        ///< alpha (normalized decayed frequency)
  double insert = 0;       ///< beta
  double del = 0;          ///< gamma
};

/// Measured naive-scan pages per operation for one path — the priced
/// status quo an unconfigured path's hysteresis gate weighs against.
struct DecisionNaivePages {
  std::string path;
  double pages_per_op = 0;
};

/// One path's side of a committed reconfiguration, both configurations
/// rendered with IndexConfiguration::ToString(schema, path).
struct DecisionChange {
  std::string path;  ///< path id
  std::string from;  ///< "{}" when the path had no configuration
  std::string to;
};

/// One scored candidate configuration and why it was not chosen.
struct DecisionCandidate {
  std::string path;        ///< the path this candidate configures
  std::string config;      ///< rendered (IndexConfiguration::ToString)
  /// Workload cost per operation with this candidate in place: the whole
  /// assignment's shared-aware cost.
  double cost_per_op = 0;
  double cost_delta = 0;   ///< cost_per_op - the chosen assignment's cost
  /// Total distinct-index storage with this candidate in place.
  double storage_bytes = 0;
  bool violates_budget = false;
  bool chosen = false;     ///< part of the winning assignment
  bool current = false;    ///< the configuration installed before the check
  /// Why the candidate lost: "" (chosen and committed), "costlier",
  /// "over_budget", or — for the winner of a held check — "hysteresis".
  std::string why_not;
};

/// Solver search effort behind the verdict. No timing lives here (see the
/// determinism contract); the re-solve duration goes to the
/// pathix_advisor_resolve_duration_us histogram.
struct DecisionSearchStats {
  long pool_entries = 0;       ///< distinct candidate-pool entries (joint)
  long configs_enumerated = 0; ///< enumerated per-path configurations
  long nodes_explored = 0;
  long nodes_pruned = 0;
  /// Admissible root lower bound of the joint search (0 when n/a); the
  /// chosen cost is always >= it.
  double lower_bound = 0;
  double bound_gap = 0;        ///< chosen cost - lower_bound
  double greedy_seed_cost = 0; ///< the greedy assignment, shared accounting
  double greedy_seed_gap = 0;  ///< seed cost - chosen cost (>= 0 if feasible)
  bool greedy_seed_feasible = false;  ///< greedy fits the storage budget
};

/// The hysteresis inequality exactly as the controller evaluated it:
///   savings_per_op * horizon_ops  >  theta * transition.total()
/// with both the modeled side (the gate itself) and — after a commit — the
/// pager-measured side recorded next to it.
struct DecisionHysteresis {
  /// True when the full inequality was evaluated (a transition was priced);
  /// false when the check short-circuited earlier (no savings, already
  /// optimal, no traffic, error).
  bool evaluated = false;
  double current_cost_per_op = 0;
  /// True when current_cost_per_op is the *measured* naive-scan pages/op of
  /// unconfigured paths (the initial-install gate), not a modeled cost.
  bool current_is_measured_naive = false;
  double best_cost_per_op = 0;
  double savings_per_op = 0;   ///< current - best
  double horizon_ops = 0;
  double theta = 0;
  double lhs_pages = 0;        ///< savings_per_op * horizon_ops
  TransitionCost modeled;
  double rhs_modeled_pages = 0;  ///< theta * modeled.total()
  /// The measured side exists only after a commit (the build I/O is read
  /// from the pager after the transition actually ran); held checks carry
  /// has_measured = false and serialize the measured side as null.
  bool has_measured = false;
  TransitionCost measured;
  double rhs_measured_pages = 0;  ///< theta * measured.total()
  bool passed = false;
};

/// One drift check's full audit record.
struct DecisionRecord {
  std::uint64_t check_number = 0;  ///< 1-based, per controller
  std::uint64_t op_index = 0;      ///< operations observed at the check
  std::string controller;  ///< the controller's label: "joint"
  std::string phase;  ///< stamped by ServeDriver::RunPhase; "" otherwise
  std::string verdict;             ///< "install", "switch", or "hold"
  /// Hold verdicts only: "no_traffic", "already_optimal", "no_savings",
  /// "hysteresis", or "error".
  std::string hold_reason;
  /// Every path a commit changed, ordered by path id; empty on holds.
  std::vector<DecisionChange> changes;
  std::vector<DecisionLoadEntry> load;  ///< sorted by (path, class id)
  std::vector<DecisionNaivePages> naive_pages;  ///< sorted by path
  DecisionSearchStats search;
  /// The chosen per-path entries first, then the single-swap alternatives.
  std::vector<DecisionCandidate> candidates;
  DecisionHysteresis hysteresis;
};

/// Appends \p load's triplets under \p path_label to \p rec->load, rendered
/// with class names from \p schema, sorted by class id (entries() iterates
/// an unordered_map — sorting here is what keeps ledgers byte-stable).
void AppendLoadEntries(const Schema& schema, const std::string& path_label,
                       const LoadDistribution& load, DecisionRecord* rec);

/// Serializes \p rec as one {"type":"decision", ...} ledger line.
void WriteDecisionRecord(obs::DecisionLog* log, const DecisionRecord& rec);

/// The ledger's head record: run identity and the controller parameters
/// every decision was gated under. Scalars only (no ControllerOptions
/// dependency) so io/examples code can assemble it from any source.
struct LedgerMeta {
  std::string mode;  ///< the controller's label: "joint"
  std::string spec;  ///< spec file path, or a label for embedded traces
  double theta = 0;
  double horizon_ops = 0;
  double half_life_ops = 0;
  std::uint64_t warmup_ops = 0;
  std::uint64_t check_interval_ops = 0;
  double storage_budget_bytes = std::numeric_limits<double>::infinity();
  int decision_top_k = 0;
  std::vector<std::string> paths;   ///< "id: rendered path", spec order
  std::vector<std::string> phases;  ///< phase names, spec order
};

/// Serializes \p meta as the {"type":"meta", ...} first ledger line,
/// carrying obs::kDecisionLedgerSchemaVersion.
void WriteLedgerMeta(obs::DecisionLog* log, const LedgerMeta& meta);

/// One labeled distribution row of a phase summary (a latency or page
/// histogram's windowed percentiles — obs::HistogramData::DeltaSince).
struct LedgerPhaseStat {
  std::string label;
  std::uint64_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
};

/// Per-phase rollup record: replay totals plus windowed latency/page
/// percentiles. The latency table is wall-clock (excluded from the
/// determinism contract — only decision records are pinned byte-identical);
/// the op_pages table is deterministic.
struct LedgerPhaseSummary {
  std::string phase;
  std::uint64_t ops = 0;
  std::uint64_t pages = 0;
  int reconfigurations = 0;
  std::uint64_t decisions = 0;  ///< decision records captured in the phase
  double transition_pages = 0;
  double measured_transition_pages = 0;
  std::vector<LedgerPhaseStat> latency_us;
  std::vector<LedgerPhaseStat> op_pages;
};

/// Serializes \p summary as one {"type":"phase_summary", ...} ledger line.
void WriteLedgerPhaseSummary(obs::DecisionLog* log,
                             const LedgerPhaseSummary& summary);

}  // namespace pathix
