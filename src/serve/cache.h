// ngsx/serve/cache.h
//
// Hot-block cache for the serving daemon: raw encoded BAMX record blocks
// (records_per_block records, at their segments' strides) kept under an
// LRU byte budget.
//
// Region queries over a resident shard set hit the same hot loci again and
// again (an IGV user scrubbing a gene, a pileup service polling a panel).
// The source's preads are cheap but not free; caching the *raw encoded*
// block — not decoded AlignmentRecords — keeps byte accounting exact, the
// decode lazy, and the entries immutable so a block can be shared by every
// in-flight request that touches it (shared_ptr keeps an evicted block
// alive for readers still holding it).
//
// A block that crosses a segment bound holds one piece per segment, each
// read with one read_raw_range and decoded under its own layout, so a hit
// never has to look the segment up. The cache is keyed by block index
// alone, so one BlockCache serves one RecordSource (the daemon has exactly
// one). Concurrent misses on the same block may both read it; the second
// insert is discarded — simpler than single-flight and harmless for a
// read-only source.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/session.h"
#include "formats/bamx.h"

namespace ngsx::serve {

class BlockCache {
 public:
  /// One cached block: the raw bytes of its segment pieces, back to back,
  /// and the pieces (each a segment clipped to the block).
  struct Block {
    std::string bytes;
    std::vector<bamx::Segment> pieces;  // in record order
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;   // currently resident
    uint64_t blocks = 0;  // currently resident
  };

  /// `byte_budget` bounds resident block bytes (oldest evicted first; a
  /// single block larger than the budget is still admitted, alone).
  explicit BlockCache(size_t byte_budget, uint64_t records_per_block = 512);

  uint64_t records_per_block() const { return records_per_block_; }

  /// Block `block_index` (records [b*rpb, min(n, (b+1)*rpb)) of
  /// `source`), from cache or via one read_raw_range per segment piece on
  /// miss. Thread-safe; also bumps serve.cache.{hits,misses} when metrics
  /// are on.
  std::shared_ptr<const Block> block(const bamx::RecordSource& source,
                                     uint64_t block_index);

  Stats stats() const;

 private:
  void evict_to_budget_locked();

  struct Entry {
    uint64_t block_index = 0;
    std::shared_ptr<const Block> block;
  };

  const size_t byte_budget_;
  const uint64_t records_per_block_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> map_;
  Stats stats_;
};

/// RecordFetcher that decodes single records out of cached blocks — the
/// seam core::ConversionSession::format_records() exposes, so the session
/// layer never learns about caching.
class CachedFetcher final : public core::RecordFetcher {
 public:
  CachedFetcher(const bamx::RecordSource& source, BlockCache& cache)
      : source_(source), cache_(cache) {}

  void fetch(uint64_t index, sam::AlignmentRecord& rec) const override;

 private:
  const bamx::RecordSource& source_;
  BlockCache& cache_;
};

}  // namespace ngsx::serve
