#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "io/spec_parser.h"
#include "storage/object.h"

/// \file streams.h
/// \brief Seeded, pre-generated client op streams for the serving
/// benchmark.
///
/// Every input the engine sees is produced here, before the timed window,
/// from (seed, client shard) alone. Which mix entry each position of a
/// stream draws (op kind, class, path) comes from an order stream that is
/// the same for every seed: the online controller then sees one sequence
/// of op kinds under all seeds, and its decisions, which a single check
/// interval of lag can make cost seconds, do not flip from seed to seed.
/// The seed decides the values:
///   - query keys are indices into the ending-value pool of the queried
///     path (the values the population drew from);
///   - insert references are drawn from *populated* oids (never from
///     objects inserted at run time), and the generator drops a populated
///     oid from the reference pools once its own stream has deleted it;
///   - delete victims are drawn without replacement from the client's own
///     shard: its stripe of the population plus the objects its own
///     earlier inserts created (resolved to oids at run time), so two
///     clients never race for one object and a stream never deletes twice.
/// A delete drawn on an empty shard is the deterministic no-op.

namespace perfbench {

enum class OpKind : std::uint8_t { kQuery, kInsert, kDelete };

/// One client operation. 8 bytes, so multi-million-op streams stay small.
struct Op {
  OpKind kind = OpKind::kQuery;
  std::uint8_t path = 0;  ///< query: index into TraceSpec::paths
  std::int16_t cls = 0;   ///< queried / inserted / deleted class
  /// query: ending-value index; insert: slot in ClientStream::inserts;
  /// delete: slot in ClientStream::victims, or kNoVictim for the no-op.
  std::uint32_t arg = 0;
};

inline constexpr std::uint32_t kNoVictim = 0xFFFFFFFFu;
/// Victim handles with this bit set name an insert slot, not an oid.
inline constexpr std::uint64_t kInsertSlotBit = 1ull << 63;

/// One client's generated operations.
struct ClientStream {
  std::vector<Op> ops;
  /// Attribute values per insert slot (consumed by the run).
  std::vector<pathix::AttrValues> inserts;
  /// Delete victims: a populated oid, or kInsertSlotBit | insert slot.
  std::vector<std::uint64_t> victims;
};

/// A stretch of a stream drawn from one phase's mix.
struct StreamSegment {
  const pathix::TracePhase* phase = nullptr;
  std::uint64_t ops = 0;
};

using LiveMap = std::map<pathix::ClassId, std::vector<pathix::Oid>>;

/// Generates the stream of shard \p shard out of \p shards: \p segments in
/// order, victims from that shard's stripe of \p populated (oid i of a
/// class belongs to shard i % shards). Deterministic in all arguments.
ClientStream GenerateStream(const pathix::TraceSpec& spec,
                            const std::vector<StreamSegment>& segments,
                            const LiveMap& populated, int shard, int shards,
                            std::uint64_t seed);

/// Size of the ending-value pool queries on \p path_index draw keys from.
int EndingValueCount(const pathix::TraceSpec& spec, int path_index);

}  // namespace perfbench
