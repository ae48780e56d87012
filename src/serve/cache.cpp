#include "serve/cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ngsx::serve {

BlockCache::BlockCache(size_t byte_budget, uint64_t records_per_block)
    : byte_budget_(byte_budget), records_per_block_(records_per_block) {
  NGSX_CHECK_MSG(records_per_block >= 1, "records_per_block must be >= 1");
}

std::shared_ptr<const BlockCache::Block> BlockCache::block(
    const bamx::RecordSource& source, uint64_t block_index) {
  static obs::Counter& hit_counter = obs::counter("serve.cache.hits");
  static obs::Counter& miss_counter = obs::counter("serve.cache.misses");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(block_index);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      hit_counter.add(1);
      return it->second->block;
    }
    ++stats_.misses;
  }
  miss_counter.add(1);

  // Read outside the lock: a miss costs one pread, and concurrent misses
  // on other blocks should not serialize behind it.
  const uint64_t begin = block_index * records_per_block_;
  const uint64_t end =
      std::min<uint64_t>(source.num_records(), begin + records_per_block_);
  NGSX_CHECK_MSG(begin < end, "block index past end of source");
  auto block = std::make_shared<Block>();
  for (uint64_t at = begin; at < end;) {
    bamx::Segment piece = source.segment_of(at);
    piece.begin = at;
    piece.end = std::min(end, piece.end);
    source.read_raw_range(piece.begin, piece.end, block->bytes);
    block->pieces.push_back(piece);
    at = piece.end;
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(block_index);
  if (it != map_.end()) {
    return it->second->block;  // another thread won the race
  }
  lru_.push_front(Entry{block_index, block});
  map_.emplace(block_index, lru_.begin());
  stats_.bytes += block->bytes.size();
  ++stats_.blocks;
  evict_to_budget_locked();
  return block;
}

void BlockCache::evict_to_budget_locked() {
  // Keep at least the newest block so an over-budget block still serves.
  while (stats_.bytes > byte_budget_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.block->bytes.size();
    --stats_.blocks;
    ++stats_.evictions;
    map_.erase(victim.block_index);
    lru_.pop_back();
  }
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CachedFetcher::fetch(uint64_t index, sam::AlignmentRecord& rec) const {
  auto block = cache_.block(source_, index / cache_.records_per_block());
  auto piece = block->pieces.begin();
  size_t offset = 0;
  for (; index >= piece->end; ++piece) {
    offset += (piece->end - piece->begin) * piece->layout.stride();
  }
  const uint64_t stride = piece->layout.stride();
  offset += static_cast<size_t>((index - piece->begin) * stride);
  bamx::decode_record(std::string_view(block->bytes)
                          .substr(offset, static_cast<size_t>(stride)),
                      piece->layout, rec);
}

}  // namespace ngsx::serve
