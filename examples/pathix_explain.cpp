// pathix_explain: render a decision ledger (pathix_online --decisions-out=)
// as a human-readable audit trail.
//
//   $ ./examples/pathix_online --decisions-out=ledger.jsonl spec.pix
//   $ ./examples/pathix_explain ledger.jsonl
//   $ ./examples/pathix_explain --check=7 ledger.jsonl
//
// Without flags: the run's parameters, the per-phase decision timeline
// (every drift check's verdict with its hysteresis margin, and under each
// commit the per-path `path: from -> to` changes), and the phase summaries
// (ops, pages, windowed latency/page percentiles).
//
// --check=N drills into one decision: the workload estimate the controller
// saw, the solver's search stats, the full scored candidate table with each
// candidate's why-not margin ("why was candidate X rejected at check N"),
// the hysteresis inequality exactly as evaluated — modeled side next to
// the pager-measured side when the check committed — and a commit's
// configuration changes.
//
// Exit status: 0 on success, 1 on usage/IO errors, 2 on schema drift (the
// ledger's schema_version does not match this binary, a record is missing
// required keys or holds one of the wrong type, or a line is not valid
// JSON) — the CI smoke gate renders the shipped example ledger and fails
// the build on drift.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/decision_log.h"
#include "obs/json_reader.h"

namespace {

using pathix::obs::JsonValue;

int SchemaDrift(std::size_t line_no, const std::string& why) {
  std::fprintf(stderr, "schema drift at ledger line %zu: %s\n", line_no,
               why.c_str());
  return 2;
}

// Required keys per record type; a ledger record missing one no longer
// matches what this binary was built against.
bool HasAll(const JsonValue& v, const std::vector<const char*>& keys,
            std::string* missing) {
  for (const char* key : keys) {
    if (!v.Has(key)) {
      *missing = std::string("missing key \"") + key + "\"";
      return false;
    }
  }
  return true;
}

// A member the renderers descend into must have the type they walk it as
// (\p v is nullptr when the member is missing).
bool IsA(const JsonValue* v, JsonValue::Type type, const char* name,
         std::string* why) {
  if (v != nullptr && v->type() == type) return true;
  *why = std::string("\"") + name + "\" is not " +
         (type == JsonValue::Type::kObject ? "an object" : "an array");
  return false;
}

bool ValidateRecord(const JsonValue& v, std::string* why) {
  const std::string type = v.StringAt("type");
  if (type == "meta") {
    if (!HasAll(v, {"schema_version", "mode", "spec", "options", "paths",
                    "phases"},
                why)) {
      return false;
    }
    const double version = v.NumberAt("schema_version", -1);
    if (version != pathix::obs::kDecisionLedgerSchemaVersion) {
      std::ostringstream os;
      os << "schema_version " << version << " != supported "
         << pathix::obs::kDecisionLedgerSchemaVersion;
      *why = os.str();
      return false;
    }
    return true;
  }
  if (type == "decision") {
    using Type = JsonValue::Type;
    if (!HasAll(v,
                {"check", "op_index", "controller", "phase", "verdict",
                 "hold_reason", "changes", "workload", "search",
                 "candidates", "hysteresis"},
                why)) {
      return false;
    }
    const JsonValue* workload = v.Find("workload");
    return IsA(v.Find("changes"), Type::kArray, "changes", why) &&
           IsA(workload, Type::kObject, "workload", why) &&
           IsA(workload->Find("load"), Type::kArray, "workload.load", why) &&
           IsA(workload->Find("naive_pages_per_op"), Type::kArray,
               "workload.naive_pages_per_op", why) &&
           IsA(v.Find("search"), Type::kObject, "search", why) &&
           IsA(v.Find("candidates"), Type::kArray, "candidates", why) &&
           HasAll(*v.Find("hysteresis"),
                  {"evaluated", "current_cost_per_op", "best_cost_per_op",
                   "savings_per_op", "horizon_ops", "theta", "lhs_pages",
                   "modeled", "rhs_modeled_pages", "measured",
                   "rhs_measured_pages", "passed"},
                  why);
  }
  if (type == "phase_summary") {
    return HasAll(v,
                  {"phase", "ops", "pages", "reconfigurations", "decisions",
                   "transition_pages", "measured_transition_pages",
                   "latency_us", "op_pages"},
                  why);
  }
  *why = "unknown record type \"" + type + "\"";
  return false;
}

void PrintMeta(const JsonValue& meta) {
  std::printf("=== Decision ledger: %s run on %s ===\n",
              meta.StringAt("mode").c_str(), meta.StringAt("spec").c_str());
  const JsonValue* opts = meta.Find("options");
  const JsonValue* budget = opts->Find("storage_budget_bytes");
  std::printf(
      "options: theta=%.2f horizon=%.0f half_life=%.0f warmup=%.0f "
      "check_interval=%.0f top_k=%.0f",
      opts->NumberAt("theta"), opts->NumberAt("horizon_ops"),
      opts->NumberAt("half_life_ops"), opts->NumberAt("warmup_ops"),
      opts->NumberAt("check_interval_ops"), opts->NumberAt("decision_top_k"));
  if (budget != nullptr && budget->is_number()) {
    std::printf(" budget=%.0f bytes", budget->AsNumber());
  } else {
    std::printf(" budget=none");
  }
  std::printf("\npaths:\n");
  for (const JsonValue& p : meta.Find("paths")->array()) {
    std::printf("  %s\n", p.AsString().c_str());
  }
}

// A commit's configuration changes, one `path: from -> to` line each.
void PrintChanges(const char* indent, const JsonValue& d) {
  for (const JsonValue& c : d.Find("changes")->array()) {
    std::printf("%s%s: %s -> %s\n", indent, c.StringAt("path").c_str(),
                c.StringAt("from").c_str(), c.StringAt("to").c_str());
  }
}

// One timeline line per decision: the verdict plus the margin that decided
// it (hysteresis lhs vs rhs when evaluated), and a commit's changes.
void PrintTimelineLine(const JsonValue& d) {
  const JsonValue* h = d.Find("hysteresis");
  const std::string verdict = d.StringAt("verdict");
  std::printf("  check %3.0f @ op %-7.0f %-8s", d.NumberAt("check"),
              d.NumberAt("op_index"), verdict.c_str());
  if (verdict == "hold") {
    std::printf(" (%s", d.StringAt("hold_reason").c_str());
    if (h->BoolAt("evaluated")) {
      std::printf(": %.0f pages won <= %.0f needed",
                  h->NumberAt("lhs_pages"), h->NumberAt("rhs_modeled_pages"));
    }
    std::printf(")");
  } else {
    std::printf(" (savings %.3f pages/op; %.0f pages won > %.0f needed",
                h->NumberAt("savings_per_op"), h->NumberAt("lhs_pages"),
                h->NumberAt("rhs_modeled_pages"));
    const JsonValue* measured_rhs = h->Find("rhs_measured_pages");
    if (measured_rhs != nullptr && measured_rhs->is_number()) {
      std::printf("; measured %.0f", measured_rhs->AsNumber());
    }
    std::printf(")");
  }
  std::printf("\n");
  PrintChanges("      ", d);
}

void PrintPhaseSummary(const JsonValue& p) {
  std::printf(
      "  phase %-12s ops=%-7.0f pages=%-8.0f reconfigs=%.0f decisions=%.0f "
      "transition=%.0f (measured %.0f)\n",
      p.StringAt("phase").c_str(), p.NumberAt("ops"), p.NumberAt("pages"),
      p.NumberAt("reconfigurations"), p.NumberAt("decisions"),
      p.NumberAt("transition_pages"),
      p.NumberAt("measured_transition_pages"));
  const auto table = [&](const char* key, const char* title) {
    const JsonValue* rows = p.Find(key);
    if (rows == nullptr || rows->array().empty()) return;
    std::printf("    %s:\n", title);
    for (const JsonValue& row : rows->array()) {
      std::printf("      %-14s n=%-7.0f p50=%-8.0f p90=%-8.0f p99=%-8.0f "
                  "max=%.0f\n",
                  row.StringAt("label").c_str(), row.NumberAt("count"),
                  row.NumberAt("p50"), row.NumberAt("p90"),
                  row.NumberAt("p99"), row.NumberAt("max"));
    }
  };
  table("latency_us", "latency (us, this phase's window)");
  table("op_pages", "pages per op (this phase's window)");
}

void PrintTransition(const char* label, const JsonValue* t) {
  if (t == nullptr || !t->is_object()) {
    std::printf("    %-8s (not available — check did not commit)\n", label);
    return;
  }
  std::printf("    %-8s drop=%-8.0f scan=%-8.0f write=%-8.0f total=%.0f\n",
              label, t->NumberAt("drop_pages"), t->NumberAt("scan_pages"),
              t->NumberAt("write_pages"), t->NumberAt("total"));
}

// The --check=N drill-down: everything the controller knew at that check.
void PrintDecisionDetail(const JsonValue& d) {
  std::printf("=== check %.0f (op %.0f, %s controller, phase %s) ===\n",
              d.NumberAt("check"), d.NumberAt("op_index"),
              d.StringAt("controller").c_str(), d.StringAt("phase").c_str());
  const std::string verdict = d.StringAt("verdict");
  std::printf("verdict: %s", verdict.c_str());
  if (verdict == "hold") {
    std::printf(" (%s)", d.StringAt("hold_reason").c_str());
  }
  std::printf("\n");
  PrintChanges("  ", d);
  std::printf("\nworkload estimate (decayed, normalized):\n");
  for (const JsonValue& e : d.Find("workload")->Find("load")->array()) {
    const std::string path = e.StringAt("path");
    std::printf("  %s%s%-14s query=%-8.4f insert=%-8.4f delete=%.4f\n",
                path.c_str(), path.empty() ? "" : " / ",
                e.StringAt("class").c_str(), e.NumberAt("query"),
                e.NumberAt("insert"), e.NumberAt("delete"));
  }
  std::printf("measured naive pages/op:\n");
  for (const JsonValue& n :
       d.Find("workload")->Find("naive_pages_per_op")->array()) {
    std::printf("  %-10s %.2f\n", n.StringAt("path", "(single)").c_str(),
                n.NumberAt("pages_per_op"));
  }

  const JsonValue* s = d.Find("search");
  std::printf("\nsearch: %.0f pool entries, %.0f configs enumerated, "
              "%.0f nodes explored, %.0f pruned\n",
              s->NumberAt("pool_entries"), s->NumberAt("configs_enumerated"),
              s->NumberAt("nodes_explored"), s->NumberAt("nodes_pruned"));
  std::printf("  lower bound %.4f, gap %.4f", s->NumberAt("lower_bound"),
              s->NumberAt("bound_gap"));
  const JsonValue* greedy = s->Find("greedy_seed");
  if (greedy != nullptr && greedy->is_object()) {
    std::printf("; greedy seed cost %.4f (gap %.4f, %s)",
                greedy->NumberAt("cost"), greedy->NumberAt("gap"),
                greedy->BoolAt("feasible") ? "feasible" : "over budget");
  }
  std::printf("\n");

  std::printf("\ncandidates (why-not margins vs the chosen assignment):\n");
  for (const JsonValue& c : d.Find("candidates")->array()) {
    const std::string why = c.StringAt("why_not");
    std::printf("  %s %s%s%s\n      cost/op=%-10.4f delta=%-+10.4f%s%s%s\n",
                c.BoolAt("chosen") ? "*" : " ", c.StringAt("path").c_str(),
                c.StringAt("path").empty() ? "" : " ",
                c.StringAt("config").c_str(), c.NumberAt("cost_per_op"),
                c.NumberAt("cost_delta"),
                c.BoolAt("current") ? "  [installed]" : "",
                c.BoolAt("violates_budget") ? "  [over budget]" : "",
                why.empty() ? "" : ("  why not: " + why).c_str());
    if (c.NumberAt("storage_bytes") > 0) {
      std::printf("      storage=%.0f bytes\n", c.NumberAt("storage_bytes"));
    }
  }

  const JsonValue* h = d.Find("hysteresis");
  std::printf("\nhysteresis gate: savings/op * horizon > theta * transition\n");
  std::printf("  current=%.4f%s best=%.4f savings=%.4f\n",
              h->NumberAt("current_cost_per_op"),
              h->BoolAt("current_is_measured_naive") ? " (measured naive)"
                                                     : " (modeled)",
              h->NumberAt("best_cost_per_op"), h->NumberAt("savings_per_op"));
  if (h->BoolAt("evaluated")) {
    std::printf("  lhs: %.4f * %.0f = %.2f pages won over the horizon\n",
                h->NumberAt("savings_per_op"), h->NumberAt("horizon_ops"),
                h->NumberAt("lhs_pages"));
    PrintTransition("modeled", h->Find("modeled"));
    std::printf("    rhs (modeled): theta %.2f * total = %.2f  ->  %s\n",
                h->NumberAt("theta"), h->NumberAt("rhs_modeled_pages"),
                h->BoolAt("passed") ? "PASS (reconfigure)" : "HOLD");
    PrintTransition("measured", h->Find("measured"));
    const JsonValue* rhs_measured = h->Find("rhs_measured_pages");
    if (rhs_measured != nullptr && rhs_measured->is_number()) {
      std::printf("    rhs (measured): theta %.2f * total = %.2f  ->  "
                  "would %s\n",
                  h->NumberAt("theta"), rhs_measured->AsNumber(),
                  h->NumberAt("lhs_pages") > rhs_measured->AsNumber()
                      ? "also PASS"
                      : "HOLD (modeled gate was optimistic)");
    }
  } else {
    std::printf("  (not evaluated — the check held before pricing a "
                "transition)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string ledger_file;
  long check = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--check=", 0) == 0) {
      // The whole value must parse, as a non-negative integer.
      const char* end = arg.data() + arg.size();
      const auto [ptr, ec] = std::from_chars(arg.data() + 8, end, check);
      if (ec != std::errc() || ptr != end || check < 0) {
        std::fprintf(stderr, "error: --check wants a non-negative integer\n");
        return 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s (known: --check=N)\n",
                   arg.c_str());
      return 1;
    } else if (ledger_file.empty()) {
      ledger_file = arg;
    } else {
      std::fprintf(stderr, "error: more than one ledger file given\n");
      return 1;
    }
  }
  if (ledger_file.empty()) {
    std::fprintf(stderr,
                 "usage: pathix_explain [--check=N] LEDGER.jsonl\n"
                 "(produce one with pathix_online --decisions-out=FILE)\n");
    return 1;
  }

  std::ifstream in(ledger_file);
  if (!in) {
    std::fprintf(stderr, "error: could not read %s\n", ledger_file.c_str());
    return 1;
  }

  // Parse + validate every line first: a drifted ledger exits 2 before any
  // partial rendering.
  std::vector<JsonValue> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    pathix::Result<JsonValue> parsed = pathix::obs::ParseJson(line);
    if (!parsed.ok()) {
      return SchemaDrift(line_no, parsed.status().ToString());
    }
    std::string why;
    if (!ValidateRecord(parsed.value(), &why)) {
      return SchemaDrift(line_no, why);
    }
    records.push_back(std::move(parsed).value());
  }
  if (records.empty() || records[0].StringAt("type") != "meta") {
    return SchemaDrift(1, "ledger must start with a meta record");
  }

  if (check >= 0) {
    for (const JsonValue& r : records) {
      if (r.StringAt("type") == "decision" &&
          r.NumberAt("check") == static_cast<double>(check)) {
        PrintDecisionDetail(r);
        return 0;
      }
    }
    std::fprintf(stderr, "error: no decision record with check=%ld\n", check);
    return 1;
  }

  PrintMeta(records[0]);
  std::string current_phase;
  for (const JsonValue& r : records) {
    const std::string type = r.StringAt("type");
    if (type == "decision") {
      if (r.StringAt("phase") != current_phase) {
        current_phase = r.StringAt("phase");
        std::printf("\nphase %s:\n", current_phase.c_str());
      }
      PrintTimelineLine(r);
    }
  }
  std::printf("\nphase summaries:\n");
  for (const JsonValue& r : records) {
    if (r.StringAt("type") == "phase_summary") PrintPhaseSummary(r);
  }
  std::printf("\n(drill into one decision with --check=N)\n");
  return 0;
}
