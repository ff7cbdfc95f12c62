#include "online/trace.h"

#include <algorithm>
#include <cstdio>

namespace pathix {

std::vector<TraceOpExecutor::MixEntry> TraceOpExecutor::FlattenMix(
    const TracePhase& phase) {
  std::vector<MixEntry> entries;
  for (std::size_t p = 0; p < phase.queries.size(); ++p) {
    for (const auto& [cls, weight] : phase.queries[p]) {
      if (weight > 0) {
        entries.push_back(
            {static_cast<int>(p), cls, DbOpKind::kQuery, weight});
      }
    }
  }
  for (const auto& [cls, upd] : phase.updates) {
    if (upd.insert > 0) {
      entries.push_back({-1, cls, DbOpKind::kInsert, upd.insert});
    }
    if (upd.del > 0) entries.push_back({-1, cls, DbOpKind::kDelete, upd.del});
  }
  std::sort(entries.begin(), entries.end(),
            [](const MixEntry& a, const MixEntry& b) {
              if (a.cls != b.cls) return a.cls < b.cls;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.path_index < b.path_index;
            });
  return entries;
}

void TraceOpExecutor::RunOne(const MixEntry& op, PhaseReport* report) {
  switch (op.kind) {
    case DbOpKind::kQuery:
      DoQuery(op.path_index, op.cls, report);
      break;
    case DbOpKind::kInsert:
      DoInsert(op.cls, report);
      break;
    case DbOpKind::kDelete:
      DoDelete(op.cls, report);
      break;
  }
}

const TracePopulate* TraceOpExecutor::PopulateSpecFor(ClassId cls) const {
  for (const TracePopulate& p : spec_->populate) {
    if (p.cls == cls) return &p;
  }
  return nullptr;
}

void TraceOpExecutor::DoQuery(int path_index, ClassId cls,
                              PhaseReport* report) {
  const TracePath& tp = spec_->paths[static_cast<std::size_t>(path_index)];
  // Query values are drawn from the ending-level value pool the population
  // (and the inserts) draw from.
  int distinct = 1;
  for (ClassId ending :
       db_->schema().HierarchyOf(tp.path.class_at(tp.path.length()))) {
    const TracePopulate* p = PopulateSpecFor(ending);
    if (p != nullptr) distinct = std::max(distinct, p->distinct_values);
  }
  std::uniform_int_distribution<int> value(0, distinct - 1);
  const Key key = Key::FromString(EndingValue(value(*rng_)));
  // Tallied on success only, mirroring the database's op counters (failed
  // operations neither count nor notify) — the cross-check is exact.
  const Result<SimDatabase::QueryOutcome> outcome = db_->QueryAny(tp.id, key,
                                                                  cls);
  if (outcome.ok()) {
    if (outcome.value().naive) {
      ++report->naive_query_ops[tp.id];
    } else {
      ++report->query_ops[tp.id];
    }
  }
}

void TraceOpExecutor::DoInsert(ClassId cls, PhaseReport* report) {
  const TracePopulate* p = PopulateSpecFor(cls);
  const double nin = p != nullptr ? p->nin : 1.0;
  std::uniform_real_distribution<double> frac(0.0, 1.0);

  // Fill the path attribute of every path the class lies on (dedup by
  // attribute name: overlapping paths share the attribute).
  AttrValues attrs;
  bool on_some_path = false;
  for (const TracePath& tp : spec_->paths) {
    int level = 0;
    for (int l = 1; l <= tp.path.length(); ++l) {
      if (db_->schema().IsSameOrSubclassOf(cls, tp.path.class_at(l))) {
        level = l;
        break;
      }
    }
    if (level == 0) continue;
    on_some_path = true;
    const std::string& attr = tp.path.attribute_at(level).name;
    if (attrs.count(attr) > 0) continue;  // shared subpath, already filled

    int nvals = static_cast<int>(nin);
    if (frac(*rng_) < nin - nvals) ++nvals;
    nvals = std::max(1, nvals);

    std::vector<Value>& values = attrs[attr];
    if (level == tp.path.length()) {
      const int distinct = p != nullptr ? p->distinct_values : 1;
      std::uniform_int_distribution<int> value(0, distinct - 1);
      for (int v = 0; v < nvals; ++v) {
        values.push_back(Value::Str(EndingValue(value(*rng_))));
      }
    } else {
      std::vector<Oid> pool;
      for (ClassId next :
           db_->schema().HierarchyOf(tp.path.class_at(level + 1))) {
        const auto it = live_->find(next);
        if (it != live_->end()) {
          pool.insert(pool.end(), it->second.begin(), it->second.end());
        }
      }
      if (!pool.empty()) {
        std::uniform_int_distribution<std::size_t> ref(0, pool.size() - 1);
        for (int v = 0; v < nvals; ++v) {
          values.push_back(Value::Ref(pool[ref(*rng_)]));
        }
      }
    }
  }
  PATHIX_DCHECK(on_some_path && "mix classes are validated against the "
                                "declared paths' scopes");
  (void)on_some_path;
  (*live_)[cls].push_back(db_->Insert(cls, std::move(attrs)));
  ++report->insert_ops;
}

void TraceOpExecutor::DoDelete(ClassId cls, PhaseReport* report) {
  std::vector<Oid>& pool = (*live_)[cls];
  if (pool.empty()) {
    ++report->noop_ops;
    return;  // deterministic no-op across replays
  }
  std::uniform_int_distribution<std::size_t> victim(0, pool.size() - 1);
  const std::size_t i = victim(*rng_);
  const Oid oid = pool[i];
  pool[i] = pool.back();
  pool.pop_back();
  if (db_->Delete(oid).ok()) {
    ++report->delete_ops;
  } else {
    ++report->noop_ops;
  }
}

ControllerOptions ControllerOptionsFor(const TraceSpec& spec,
                                       ControllerOptions options) {
  options.orgs = spec.options.orgs;
  options.physical_params = spec.catalog.params();
  options.storage_budget_bytes = spec.storage_budget_bytes;
  return options;
}

Status CheckReplayableSpec(const TraceSpec& spec) {
  for (IndexOrg org : spec.options.orgs) {
    if (org == IndexOrg::kNX || org == IndexOrg::kPX) {
      return Status::FailedPrecondition(
          "NX/PX are model-only candidates; trace replays run physical "
          "configurations");
    }
  }
  const double matching_keys = spec.options.query_profile.matching_keys;
  if (matching_keys != 1) {
    char width[32];
    std::snprintf(width, sizeof(width), "%g", matching_keys);
    return Status::FailedPrecondition(
        std::string("matching_keys ") + width +
        " prices range predicates; trace replays run equality probes only");
  }
  if (spec.paths.empty()) {
    return Status::InvalidArgument("trace spec declares no paths");
  }
  return Status::OK();
}

}  // namespace pathix
