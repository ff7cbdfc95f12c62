#include "online/decision_record.h"

#include <algorithm>
#include <utility>

#include "schema/schema.h"

namespace pathix {

namespace {

void WriteTransition(obs::JsonWriter* w, const TransitionCost& t) {
  w->BeginObject()
      .Key("drop_pages").Value(t.drop_pages)
      .Key("scan_pages").Value(t.scan_pages)
      .Key("write_pages").Value(t.write_pages)
      .Key("total").Value(t.total())
      .EndObject();
}

void WritePhaseStats(obs::JsonWriter* w,
                     const std::vector<LedgerPhaseStat>& stats) {
  w->BeginArray();
  for (const LedgerPhaseStat& s : stats) {
    w->BeginObject()
        .Key("label").Value(s.label)
        .Key("count").Value(static_cast<std::uint64_t>(s.count))
        .Key("p50").Value(s.p50)
        .Key("p90").Value(s.p90)
        .Key("p99").Value(s.p99)
        .Key("max").Value(s.max)
        .EndObject();
  }
  w->EndArray();
}

}  // namespace

void AppendLoadEntries(const Schema& schema, const std::string& path_label,
                       const LoadDistribution& load, DecisionRecord* rec) {
  std::vector<std::pair<ClassId, OpLoad>> entries(load.entries().begin(),
                                                  load.entries().end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [cls, op] : entries) {
    DecisionLoadEntry e;
    e.path = path_label;
    e.cls = schema.GetClass(cls).name();
    e.query = op.query;
    e.insert = op.insert;
    e.del = op.del;
    rec->load.push_back(std::move(e));
  }
}

void WriteDecisionRecord(obs::DecisionLog* log, const DecisionRecord& rec) {
  obs::JsonWriter& w = log->BeginRecord();
  w.BeginObject()
      .Key("type").Value("decision")
      .Key("check").Value(static_cast<std::uint64_t>(rec.check_number))
      .Key("op_index").Value(static_cast<std::uint64_t>(rec.op_index))
      .Key("controller").Value(rec.controller)
      .Key("phase").Value(rec.phase)
      .Key("verdict").Value(rec.verdict)
      .Key("hold_reason").Value(rec.hold_reason);

  w.Key("changes").BeginArray();
  for (const DecisionChange& c : rec.changes) {
    w.BeginObject()
        .Key("path").Value(c.path)
        .Key("from").Value(c.from)
        .Key("to").Value(c.to)
        .EndObject();
  }
  w.EndArray();

  w.Key("workload").BeginObject();
  w.Key("load").BeginArray();
  for (const DecisionLoadEntry& e : rec.load) {
    w.BeginObject()
        .Key("path").Value(e.path)
        .Key("class").Value(e.cls)
        .Key("query").Value(e.query)
        .Key("insert").Value(e.insert)
        .Key("delete").Value(e.del)
        .EndObject();
  }
  w.EndArray();
  w.Key("naive_pages_per_op").BeginArray();
  for (const DecisionNaivePages& n : rec.naive_pages) {
    w.BeginObject()
        .Key("path").Value(n.path)
        .Key("pages_per_op").Value(n.pages_per_op)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();  // workload

  const DecisionSearchStats& s = rec.search;
  w.Key("search").BeginObject()
      .Key("pool_entries").Value(static_cast<std::int64_t>(s.pool_entries))
      .Key("configs_enumerated")
          .Value(static_cast<std::int64_t>(s.configs_enumerated))
      .Key("nodes_explored").Value(static_cast<std::int64_t>(s.nodes_explored))
      .Key("nodes_pruned").Value(static_cast<std::int64_t>(s.nodes_pruned))
      .Key("lower_bound").Value(s.lower_bound)
      .Key("bound_gap").Value(s.bound_gap);
  w.Key("greedy_seed").BeginObject()
      .Key("cost").Value(s.greedy_seed_cost)
      .Key("gap").Value(s.greedy_seed_gap)
      .Key("feasible").Value(s.greedy_seed_feasible)
      .EndObject();
  w.EndObject();  // search

  w.Key("candidates").BeginArray();
  for (const DecisionCandidate& c : rec.candidates) {
    w.BeginObject()
        .Key("path").Value(c.path)
        .Key("config").Value(c.config)
        .Key("cost_per_op").Value(c.cost_per_op)
        .Key("cost_delta").Value(c.cost_delta)
        .Key("storage_bytes").Value(c.storage_bytes)
        .Key("violates_budget").Value(c.violates_budget)
        .Key("chosen").Value(c.chosen)
        .Key("current").Value(c.current)
        .Key("why_not").Value(c.why_not)
        .EndObject();
  }
  w.EndArray();

  const DecisionHysteresis& h = rec.hysteresis;
  w.Key("hysteresis").BeginObject()
      .Key("evaluated").Value(h.evaluated)
      .Key("current_cost_per_op").Value(h.current_cost_per_op)
      .Key("current_is_measured_naive").Value(h.current_is_measured_naive)
      .Key("best_cost_per_op").Value(h.best_cost_per_op)
      .Key("savings_per_op").Value(h.savings_per_op)
      .Key("horizon_ops").Value(h.horizon_ops)
      .Key("theta").Value(h.theta)
      .Key("lhs_pages").Value(h.lhs_pages);
  w.Key("modeled");
  WriteTransition(&w, h.modeled);
  w.Key("rhs_modeled_pages").Value(h.rhs_modeled_pages);
  if (h.has_measured) {
    w.Key("measured");
    WriteTransition(&w, h.measured);
    w.Key("rhs_measured_pages").Value(h.rhs_measured_pages);
  } else {
    w.Key("measured").Null();
    w.Key("rhs_measured_pages").Null();
  }
  w.Key("passed").Value(h.passed);
  w.EndObject();  // hysteresis

  w.EndObject();
  log->EndRecord();
}

void WriteLedgerMeta(obs::DecisionLog* log, const LedgerMeta& meta) {
  obs::JsonWriter& w = log->BeginRecord();
  w.BeginObject()
      .Key("type").Value("meta")
      .Key("schema_version").Value(obs::kDecisionLedgerSchemaVersion)
      .Key("mode").Value(meta.mode)
      .Key("spec").Value(meta.spec);
  w.Key("options").BeginObject()
      .Key("theta").Value(meta.theta)
      .Key("horizon_ops").Value(meta.horizon_ops)
      .Key("half_life_ops").Value(meta.half_life_ops)
      .Key("warmup_ops").Value(static_cast<std::uint64_t>(meta.warmup_ops))
      .Key("check_interval_ops")
          .Value(static_cast<std::uint64_t>(meta.check_interval_ops))
      // Infinity (no budget) serializes as null — JSON has no inf.
      .Key("storage_budget_bytes").Value(meta.storage_budget_bytes)
      .Key("decision_top_k").Value(meta.decision_top_k)
      .EndObject();
  w.Key("paths").BeginArray();
  for (const std::string& p : meta.paths) w.Value(p);
  w.EndArray();
  w.Key("phases").BeginArray();
  for (const std::string& p : meta.phases) w.Value(p);
  w.EndArray();
  w.EndObject();
  log->EndRecord();
}

void WriteLedgerPhaseSummary(obs::DecisionLog* log,
                             const LedgerPhaseSummary& summary) {
  obs::JsonWriter& w = log->BeginRecord();
  w.BeginObject()
      .Key("type").Value("phase_summary")
      .Key("phase").Value(summary.phase)
      .Key("ops").Value(static_cast<std::uint64_t>(summary.ops))
      .Key("pages").Value(static_cast<std::uint64_t>(summary.pages))
      .Key("reconfigurations").Value(summary.reconfigurations)
      .Key("decisions").Value(static_cast<std::uint64_t>(summary.decisions))
      .Key("transition_pages").Value(summary.transition_pages)
      .Key("measured_transition_pages")
          .Value(summary.measured_transition_pages);
  w.Key("latency_us");
  WritePhaseStats(&w, summary.latency_us);
  w.Key("op_pages");
  WritePhaseStats(&w, summary.op_pages);
  w.EndObject();
  log->EndRecord();
}

}  // namespace pathix
