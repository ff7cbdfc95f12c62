#include "index/subpath_index.h"

#include <algorithm>
#include <array>
#include <bit>

namespace pathix {

namespace {

/// Below this many oids a comparison sort beats the radix passes' fixed
/// bucket work. Measured on 17-bit oids (the width of perfbench
/// churn_drift's levels): std::sort is 4-17x faster at 8-32 oids, the two
/// meet near 64, and the radix sort is 2.8x faster at 128 oids and 4x at
/// 512.
constexpr std::size_t kRadixMinOids = 64;
constexpr int kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

}  // namespace

void SortUniqueOids(std::vector<Oid>* oids) {
  std::vector<Oid>& v = *oids;
  if (v.size() < kRadixMinOids) {
    std::sort(v.begin(), v.end());
  } else {
    Oid used = 0;
    for (Oid oid : v) used |= oid;
    const int bits = static_cast<int>(std::bit_width(used));
    std::vector<Oid> buffer(v.size());
    for (int shift = 0; shift < bits; shift += kDigitBits) {
      std::array<std::size_t, kBuckets> at{};
      for (Oid oid : v) ++at[(oid >> shift) & (kBuckets - 1)];
      std::size_t offset = 0;
      for (std::size_t& count : at) {
        const std::size_t n = count;
        count = offset;
        offset += n;
      }
      for (Oid oid : v) buffer[at[(oid >> shift) & (kBuckets - 1)]++] = oid;
      v.swap(buffer);
    }
  }
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool StrictlyIncreasing(const std::vector<Key>& keys) {
  return std::adjacent_find(keys.begin(), keys.end(),
                            [](const Key& a, const Key& b) {
                              return !(a < b);
                            }) == keys.end();
}

}  // namespace pathix
