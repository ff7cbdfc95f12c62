#include "streams.h"

#include <algorithm>
#include <random>
#include <unordered_map>

#include "datagen/generator.h"
#include "online/trace.h"

namespace perfbench {

namespace {

using pathix::ClassId;
using pathix::Oid;
using pathix::TraceSpec;

/// Seeds the op-order streams (see streams.h).
constexpr std::uint64_t kOrderSeed = 0x0DDBA11ull;

/// SplitMix64 finalizer: decorrelates the streams of nearby seeds/shards.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const pathix::TracePopulate* PopulateFor(const TraceSpec& spec,
                                         ClassId cls) {
  for (const pathix::TracePopulate& p : spec.populate) {
    if (p.cls == cls) return &p;
  }
  return nullptr;
}

/// The populated oids inserts may reference, minus the ones this stream
/// has deleted.
class RefPools {
 public:
  explicit RefPools(const LiveMap& populated) : pools_(populated) {
    for (const auto& [cls, oids] : pools_) {
      for (std::size_t i = 0; i < oids.size(); ++i) pos_[oids[i]] = i;
    }
  }

  void Remove(ClassId cls, Oid oid) {
    const auto it = pos_.find(oid);
    if (it == pos_.end()) return;
    std::vector<Oid>& pool = pools_[cls];
    const std::size_t i = it->second;
    pos_.erase(it);
    if (i + 1 != pool.size()) {
      pool[i] = pool.back();
      pos_[pool[i]] = i;
    }
    pool.pop_back();
  }

  /// Uniform draw over the union of the pools of \p classes; false when
  /// they are all empty.
  bool Draw(const std::vector<ClassId>& classes, std::mt19937_64& rng,
            Oid* out) const {
    std::size_t total = 0;
    for (ClassId c : classes) total += SizeOf(c);
    if (total == 0) return false;
    std::size_t i = std::uniform_int_distribution<std::size_t>(0, total - 1)(rng);
    for (ClassId c : classes) {
      const std::size_t n = SizeOf(c);
      if (i < n) {
        *out = pools_.at(c)[i];
        return true;
      }
      i -= n;
    }
    return false;
  }

 private:
  std::size_t SizeOf(ClassId cls) const {
    const auto it = pools_.find(cls);
    return it == pools_.end() ? 0 : it->second.size();
  }

  LiveMap pools_;
  std::unordered_map<Oid, std::size_t> pos_;
};

/// The attribute values of one inserted object of \p cls: the path
/// attribute of every path the class lies on, filled like the trace
/// replayer fills it (ending values from the value pool, references to the
/// next level's classes).
pathix::AttrValues MakeInsert(const TraceSpec& spec, ClassId cls,
                              const RefPools& refs, std::mt19937_64& rng) {
  const pathix::TracePopulate* p = PopulateFor(spec, cls);
  const double nin = p != nullptr ? p->nin : 1.0;
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  pathix::AttrValues attrs;
  for (const pathix::TracePath& tp : spec.paths) {
    int level = 0;
    for (int l = 1; l <= tp.path.length(); ++l) {
      if (spec.schema.IsSameOrSubclassOf(cls, tp.path.class_at(l))) {
        level = l;
        break;
      }
    }
    if (level == 0) continue;
    const std::string& attr = tp.path.attribute_at(level).name;
    if (attrs.count(attr) > 0) continue;  // shared subpath, already filled

    int nvals = static_cast<int>(nin);
    if (frac(rng) < nin - nvals) ++nvals;
    nvals = std::max(1, nvals);
    std::vector<pathix::Value>& values = attrs[attr];
    if (level == tp.path.length()) {
      const int distinct = p != nullptr ? p->distinct_values : 1;
      std::uniform_int_distribution<int> value(0, distinct - 1);
      for (int v = 0; v < nvals; ++v) {
        values.push_back(pathix::Value::Str(pathix::EndingValue(value(rng))));
      }
    } else {
      const std::vector<ClassId> targets =
          spec.schema.HierarchyOf(tp.path.class_at(level + 1));
      for (int v = 0; v < nvals; ++v) {
        Oid oid = pathix::kInvalidOid;
        if (refs.Draw(targets, rng, &oid)) {
          values.push_back(pathix::Value::Ref(oid));
        }
      }
    }
  }
  return attrs;
}

}  // namespace

int EndingValueCount(const TraceSpec& spec, int path_index) {
  const pathix::Path& path =
      spec.paths[static_cast<std::size_t>(path_index)].path;
  int distinct = 1;
  for (ClassId ending : spec.schema.HierarchyOf(path.class_at(path.length()))) {
    if (const pathix::TracePopulate* p = PopulateFor(spec, ending)) {
      distinct = std::max(distinct, p->distinct_values);
    }
  }
  return distinct;
}

ClientStream GenerateStream(const TraceSpec& spec,
                            const std::vector<StreamSegment>& segments,
                            const LiveMap& populated, int shard, int shards,
                            std::uint64_t seed) {
  const std::uint64_t shard_mix = Mix(static_cast<std::uint64_t>(shard));
  std::mt19937_64 order(Mix(kOrderSeed ^ shard_mix));
  std::mt19937_64 rng(Mix(seed ^ shard_mix));
  RefPools refs(populated);
  std::map<ClassId, std::vector<std::uint64_t>> handles;
  for (const auto& [cls, oids] : populated) {
    std::vector<std::uint64_t>& mine = handles[cls];
    for (std::size_t i = static_cast<std::size_t>(shard); i < oids.size();
         i += static_cast<std::size_t>(shards)) {
      mine.push_back(oids[i]);
    }
  }
  std::vector<int> key_counts;
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    key_counts.push_back(EndingValueCount(spec, static_cast<int>(p)));
  }

  ClientStream out;
  std::uint64_t total = 0;
  for (const StreamSegment& seg : segments) total += seg.ops;
  out.ops.reserve(total);
  for (const StreamSegment& seg : segments) {
    const std::vector<pathix::TraceOpExecutor::MixEntry> entries =
        pathix::TraceOpExecutor::FlattenMix(*seg.phase);
    std::vector<double> weights;
    weights.reserve(entries.size());
    for (const auto& e : entries) weights.push_back(e.weight);
    std::discrete_distribution<std::size_t> pick(weights.begin(),
                                                 weights.end());
    for (std::uint64_t i = 0; i < seg.ops; ++i) {
      const pathix::TraceOpExecutor::MixEntry& e = entries[pick(order)];
      Op op;
      op.cls = static_cast<std::int16_t>(e.cls);
      switch (e.kind) {
        case pathix::DbOpKind::kQuery: {
          op.kind = OpKind::kQuery;
          op.path = static_cast<std::uint8_t>(e.path_index);
          op.arg = static_cast<std::uint32_t>(std::uniform_int_distribution<int>(
              0, key_counts[static_cast<std::size_t>(e.path_index)] - 1)(rng));
          break;
        }
        case pathix::DbOpKind::kInsert: {
          op.kind = OpKind::kInsert;
          op.arg = static_cast<std::uint32_t>(out.inserts.size());
          out.inserts.push_back(MakeInsert(spec, e.cls, refs, rng));
          handles[e.cls].push_back(kInsertSlotBit | op.arg);
          break;
        }
        case pathix::DbOpKind::kDelete: {
          op.kind = OpKind::kDelete;
          std::vector<std::uint64_t>& pool = handles[e.cls];
          if (pool.empty()) {
            op.arg = kNoVictim;
            break;
          }
          const std::size_t at =
              std::uniform_int_distribution<std::size_t>(0, pool.size() - 1)(
                  rng);
          const std::uint64_t victim = pool[at];
          pool[at] = pool.back();
          pool.pop_back();
          if ((victim & kInsertSlotBit) == 0) refs.Remove(e.cls, victim);
          op.arg = static_cast<std::uint32_t>(out.victims.size());
          out.victims.push_back(victim);
          break;
        }
      }
      out.ops.push_back(op);
    }
  }
  return out;
}

}  // namespace perfbench
