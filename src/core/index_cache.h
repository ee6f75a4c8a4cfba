#ifndef TMAN_CORE_INDEX_CACHE_H_
#define TMAN_CORE_INDEX_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cachestore/lfu_cache.h"
#include "cachestore/redis_like.h"
#include "index/tshape_index.h"

namespace tman::core {

// Shapes actually used inside one enlarged element, with their optimized
// final codes (paper §IV-B(3): the tuple <element, shape, final code>).
struct ElementShapes {
  // (raw bitmap, final code), in final-code order.
  index::ShapeList shapes;

  // Returns the final code for a bitmap, or UINT32_MAX if unknown.
  uint32_t FinalCodeOf(uint32_t bits) const {
    for (const auto& [b, code] : shapes) {
      if (b == bits) return code;
    }
    return UINT32_MAX;
  }
};

// The index cache: an LFU-managed in-memory view over the durable mapping
// stored in the Redis-like service. Query processing reads shape maps
// through it (miss -> load from Redis, §IV-B(3)); ingestion registers new
// shapes through it.
//
// It also keeps the occupancy registry: the sorted set of element codes
// that have had at least one shape registered (PutElement with a non-empty
// mapping, AddShape). Registration precedes every row write under an
// element and the registry never shrinks, so it over-approximates the
// elements that hold rows; deleted or expired rows leave false positives,
// which cost a lookup but never hide a row. The query planner uses it to
// skip empty quad subtrees, and GetElement to skip Redis and the LFU for
// elements that hold nothing.
class IndexCache {
 public:
  // When `registry` is set, hit/miss/eviction and Redis-load events are
  // published under tman_index_cache_*.
  IndexCache(cache::RedisLikeStore* redis, size_t lfu_capacity,
             obs::MetricsRegistry* registry = nullptr);

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  // Shape map of an element; loads from Redis on LFU miss. Never null: an
  // element that is not occupied yields one shared empty map, without a
  // Redis load or an LFU lookup.
  std::shared_ptr<const ElementShapes> GetElement(uint64_t quad_code);

  // Installs/overwrites the full mapping for an element (bulk-load path and
  // re-encode path): writes through to Redis and refreshes the LFU entry.
  void PutElement(uint64_t quad_code,
                  std::vector<std::pair<uint32_t, uint32_t>> shapes);

  // Registers a single new shape with the given final code (update path).
  void AddShape(uint64_t quad_code, uint32_t bits, uint32_t final_code);

  // Smallest occupied element code >= `lo`, or UINT64_MAX if none.
  uint64_t NextOccupied(uint64_t lo) const;
  size_t occupied_elements() const;

  // Adapters for TShapeIndex::QueryRanges.
  index::ShapeLookup AsLookup();
  index::OccupancyProbe AsOccupancyProbe() const;

  uint64_t lfu_hits() const { return lfu_.hits(); }
  uint64_t lfu_misses() const { return lfu_.misses(); }
  uint64_t redis_loads() const {
    return redis_loads_.load(std::memory_order_relaxed);
  }

 private:
  static std::string RedisKey(uint64_t quad_code);
  void MarkOccupied(uint64_t quad_code);
  // Serializes an element's Redis load + LFU fill against its writers.
  std::mutex& ElementMutex(uint64_t quad_code) {
    return element_mu_[quad_code % element_mu_.size()];
  }

  cache::RedisLikeStore* redis_;
  cache::LFUCache<uint64_t, std::shared_ptr<const ElementShapes>> lfu_;
  std::atomic<uint64_t> redis_loads_{0};
  obs::Counter* ext_redis_loads_ = nullptr;

  std::array<std::mutex, 16> element_mu_;

  mutable std::shared_mutex occupied_mu_;
  std::set<uint64_t> occupied_;  // guarded by occupied_mu_
};

// Buffer shape cache (paper §IV-C): holds shapes first seen after the last
// re-encode, keyed by element. When the total buffered shape count crosses
// the threshold, the storage layer triggers a re-encode.
//
// Striped 16 ways by element so concurrent ingest threads registering
// shapes for different elements do not serialize on one mutex. The global
// buffered-shape count is a relaxed atomic; Drain locks every stripe (in
// index order, so concurrent Drains cannot deadlock) to take a consistent
// snapshot.
class BufferShapeCache {
 public:
  // Records (element, bits); returns the number of buffered shapes.
  size_t Add(uint64_t quad_code, uint32_t bits);

  bool Contains(uint64_t quad_code, uint32_t bits) const;

  // Elements with buffered shapes and those shapes.
  std::vector<std::pair<uint64_t, std::vector<uint32_t>>> Drain();

  size_t size() const { return count_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kNumStripes = 16;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<uint32_t>> buffered;
  };

  Stripe& StripeFor(uint64_t quad_code) {
    return stripes_[quad_code % kNumStripes];
  }
  const Stripe& StripeFor(uint64_t quad_code) const {
    return stripes_[quad_code % kNumStripes];
  }

  std::array<Stripe, kNumStripes> stripes_;
  std::atomic<size_t> count_{0};
};

}  // namespace tman::core

#endif  // TMAN_CORE_INDEX_CACHE_H_
