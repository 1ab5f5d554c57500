#include "src/io/block_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace msd {

std::string FlattenBlockKey(const BlockKey& key) {
  return key.name + ":" + std::to_string(key.offset) + "+" + std::to_string(key.length);
}

BlockCache::BlockCache(Config config) : config_(config) {
  MSD_CHECK(config_.capacity_bytes > 0);
  MSD_CHECK(config_.shards >= 1);
  per_shard_budget_ =
      std::max<int64_t>(1, config_.capacity_bytes / static_cast<int64_t>(config_.shards));
  shards_.reserve(static_cast<size_t>(config_.shards));
  for (int32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Shard& BlockCache::ShardFor(const std::string& flat_key) {
  return *shards_[Fnv1a64(flat_key) % shards_.size()];
}

std::string BlockCache::SpillBlobName(const std::string& flat_key) const {
  // ':' and '+' are path-safe; keep keys under one prefix so the spill store
  // can host other blobs (e.g. a checkpoint) without collisions.
  return "block-spill/" + flat_key;
}

void BlockCache::RegisterTenant(IoTenantId tenant, int64_t capacity_bytes) {
  MSD_CHECK(capacity_bytes >= 0);
  // Slice like the global capacity: the shard hash spreads a tenant's blocks
  // uniformly, so a per-shard share approximates the global budget without a
  // cross-shard accounting lock on the hot path.
  const int64_t slice =
      capacity_bytes > 0
          ? std::max<int64_t>(1, capacity_bytes / static_cast<int64_t>(config_.shards))
          : 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->tenants[tenant].budget = slice;
  }
}

int64_t BlockCache::RemoveTenant(IoTenantId tenant) {
  int64_t released = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->owner != tenant) {
        ++it;
        continue;
      }
      released += static_cast<int64_t>(it->bytes->size());
      it = UnlinkLocked(*shard, it);
    }
    for (auto it = shard->spilled.begin(); it != shard->spilled.end();) {
      it = it->second.owner == tenant ? shard->spilled.erase(it) : std::next(it);
    }
    shard->tenants.erase(tenant);
  }
  return released;
}

// Memory-tier probe shared by Lookup and PeekResident; shard.mu held.
// Returns the bytes, or nullptr after dropping a checksum-corrupt entry.
std::shared_ptr<const std::string> BlockCache::ResidentLocked(Shard& shard,
                                                              const std::string& flat) {
  auto it = shard.index.find(flat);
  if (it == shard.index.end()) {
    return nullptr;
  }
  Entry& entry = *it->second;
  if (Xxh64(*entry.bytes) != entry.checksum) {
    // Bit rot (or a hostile test): drop the entry and read as a miss so the
    // caller re-fetches authoritative bytes. Attributed to the owner — it is
    // their copy that rotted, whoever asked.
    ++shard.stats.corruptions;
    ++shard.tenants[entry.owner].stats.corruptions;
    UnlinkLocked(shard, it->second);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return entry.bytes;
}

std::list<BlockCache::Entry>::iterator BlockCache::UnlinkLocked(
    Shard& shard, std::list<Entry>::iterator victim) {
  const int64_t size = static_cast<int64_t>(victim->bytes->size());
  shard.resident_bytes -= size;
  shard.tenants[victim->owner].resident_bytes -= size;
  shard.index.erase(victim->key);
  return shard.lru.erase(victim);
}

std::shared_ptr<const std::string> BlockCache::PeekResident(const BlockKey& key) {
  const std::string flat = FlattenBlockKey(key);
  Shard& shard = ShardFor(flat);
  std::lock_guard<std::mutex> lock(shard.mu);
  return ResidentLocked(shard, flat);
}

std::shared_ptr<const std::string> BlockCache::Lookup(const BlockKey& key, IoTenantId tenant) {
  const std::string flat = FlattenBlockKey(key);
  Shard& shard = ShardFor(flat);
  std::vector<Entry> victims;
  std::shared_ptr<const std::string> result;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    ++shard.stats.lookups;
    ++shard.tenants[tenant].stats.lookups;
    {
      auto owner_it = shard.index.find(flat);
      const IoTenantId owner =
          owner_it != shard.index.end() ? owner_it->second->owner : tenant;
      if (std::shared_ptr<const std::string> resident = ResidentLocked(shard, flat)) {
        ++shard.stats.hits;
        ++shard.tenants[tenant].stats.hits;
        if (owner != tenant) {
          ++shard.stats.cross_tenant_hits;
          ++shard.tenants[tenant].stats.cross_tenant_hits;
        }
        return resident;
      }
    }
    // Second chance: the disk spill tier. The entry is claimed (erased)
    // before the read so the disk I/O can run unlocked; a concurrent Lookup
    // of the same block during that window misses and re-fetches from
    // backing storage — correct, just one wasted Get.
    auto spilled = shard.spilled.find(flat);
    if (spilled != shard.spilled.end() && config_.spill != nullptr) {
      const SpillMeta meta = spilled->second;
      shard.spilled.erase(spilled);
      lock.unlock();
      Result<FileHandle> handle = config_.spill->Open(SpillBlobName(flat), 0);
      std::shared_ptr<const std::string> bytes;
      bool verified = false;
      bool corrupt = false;
      if (handle.ok()) {
        bytes = std::make_shared<const std::string>(handle->Contents());
        verified = bytes->size() == meta.size && Xxh64(*bytes) == meta.checksum;
        corrupt = !verified;
      }
      lock.lock();
      if (verified) {
        ++shard.stats.hits;
        ++shard.stats.spill_hits;
        ++shard.tenants[tenant].stats.hits;
        ++shard.tenants[tenant].stats.spill_hits;
        if (meta.owner != tenant) {
          ++shard.stats.cross_tenant_hits;
          ++shard.tenants[tenant].stats.cross_tenant_hits;
        }
        // Promote back into memory (may immediately re-evict others) —
        // unless a racing Insert repopulated the key while the lock was
        // dropped, in which case the resident copy stays authoritative and
        // the verified bytes are simply served. The promoter adopts the
        // block: it is the one paying for the resident copy now.
        if (shard.index.find(flat) == shard.index.end()) {
          shard.lru.push_front(Entry{flat, bytes, meta.checksum, tenant});
          shard.index[flat] = shard.lru.begin();
          shard.resident_bytes += static_cast<int64_t>(bytes->size());
          shard.tenants[tenant].resident_bytes += static_cast<int64_t>(bytes->size());
          victims = EvictLocked(shard);
        }
        result = bytes;
      } else {
        // Unreadable or corrupt spill entry: already forgotten above.
        if (corrupt) {
          ++shard.stats.corruptions;
          ++shard.tenants[meta.owner].stats.corruptions;
        }
        ++shard.stats.misses;
        ++shard.tenants[tenant].stats.misses;
      }
    } else {
      ++shard.stats.misses;
      ++shard.tenants[tenant].stats.misses;
    }
  }
  SpillOutsideLock(shard, std::move(victims));
  return result;
}

void BlockCache::Insert(const BlockKey& key, std::shared_ptr<const std::string> bytes,
                        IoTenantId tenant) {
  MSD_CHECK(bytes != nullptr);
  const std::string flat = FlattenBlockKey(key);
  Shard& shard = ShardFor(flat);
  std::vector<Entry> victims;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(flat);
    if (it != shard.index.end()) {
      UnlinkLocked(shard, it->second);
    }
    shard.spilled.erase(flat);  // the fresh copy supersedes any spilled one
    shard.lru.push_front(Entry{flat, bytes, Xxh64(*bytes), tenant});
    shard.index[flat] = shard.lru.begin();
    shard.resident_bytes += static_cast<int64_t>(bytes->size());
    shard.tenants[tenant].resident_bytes += static_cast<int64_t>(bytes->size());
    ++shard.stats.insertions;
    ++shard.tenants[tenant].stats.insertions;
    victims = EvictLocked(shard);
  }
  SpillOutsideLock(shard, std::move(victims));
}

bool BlockCache::Erase(const BlockKey& key) {
  const std::string flat = FlattenBlockKey(key);
  Shard& shard = ShardFor(flat);
  std::lock_guard<std::mutex> lock(shard.mu);
  bool existed = false;
  auto it = shard.index.find(flat);
  if (it != shard.index.end()) {
    UnlinkLocked(shard, it->second);
    existed = true;
  }
  // The spilled blob itself is left behind; dropping the index entry is what
  // makes it unreachable (promotion always verifies against the index).
  existed |= shard.spilled.erase(flat) > 0;
  return existed;
}

std::vector<BlockCache::Entry> BlockCache::EvictLocked(Shard& shard) {
  std::vector<Entry> victims;
  auto evict = [&](std::list<Entry>::iterator victim) {
    ++shard.stats.evictions;
    ++shard.tenants[victim->owner].stats.evictions;
    // Copy (not move) before unlinking: UnlinkLocked still reads the entry's
    // key/owner/bytes for the index erase and the resident accounting.
    if (config_.spill != nullptr) {
      victims.push_back(*victim);
    }
    UnlinkLocked(shard, victim);
  };
  // Per-tenant budget pressure first: an over-budget tenant sheds its OWN
  // least-recent entries, walking the shared LRU from the back. The shard's
  // MRU entry is always spared — a block larger than the whole budget must
  // still be servable once (mirrors the global lru.size() > 1 guard).
  for (auto& [tenant, tshard] : shard.tenants) {
    if (tshard.budget <= 0) {
      continue;
    }
    auto it = shard.lru.end();
    while (tshard.resident_bytes > tshard.budget && it != shard.lru.begin()) {
      --it;
      if (it == shard.lru.begin()) {
        break;
      }
      if (it->owner != tenant) {
        continue;
      }
      evict(it++);
    }
  }
  // Then the shard-wide budget, owner-blind as before.
  while (shard.resident_bytes > per_shard_budget_ && shard.lru.size() > 1) {
    evict(std::prev(shard.lru.end()));
  }
  return victims;
}

void BlockCache::SpillOutsideLock(Shard& shard, std::vector<Entry> victims) {
  // The spill Put fsyncs; doing it under shard.mu would stall every reader
  // of the shard per eviction. Between the eviction and the index write
  // below the block is in neither tier — a concurrent Lookup re-fetches
  // from backing storage, and verify-on-promote catches any racing
  // blob/index divergence as a plain miss.
  for (Entry& victim : victims) {
    if (config_.spill->Put(SpillBlobName(victim.key), *victim.bytes).ok()) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.spilled[victim.key] = SpillMeta{victim.checksum, victim.bytes->size(), victim.owner};
      ++shard.stats.spill_writes;
      ++shard.tenants[victim.owner].stats.spill_writes;
    }
  }
}

BlockCache::Stats BlockCache::stats() const {
  // Lock every shard for the whole aggregation: the snapshot is a consistent
  // cut, so invariants like lookups == hits + misses hold exactly even while
  // concurrent tenants are mutating other shards. Shards are always acquired
  // in index order (here and in tenant_stats), so the all-shard sweeps cannot
  // deadlock each other.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  Stats total;
  for (const auto& shard : shards_) {
    total.lookups += shard->stats.lookups;
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
    total.spill_writes += shard->stats.spill_writes;
    total.spill_hits += shard->stats.spill_hits;
    total.corruptions += shard->stats.corruptions;
    total.cross_tenant_hits += shard->stats.cross_tenant_hits;
    total.resident_bytes += shard->resident_bytes;
  }
  return total;
}

BlockCache::Stats BlockCache::tenant_stats(IoTenantId tenant) const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  Stats total;
  for (const auto& shard : shards_) {
    auto it = shard->tenants.find(tenant);
    if (it == shard->tenants.end()) {
      continue;
    }
    const Stats& s = it->second.stats;
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.spill_writes += s.spill_writes;
    total.spill_hits += s.spill_hits;
    total.corruptions += s.corruptions;
    total.cross_tenant_hits += s.cross_tenant_hits;
    total.resident_bytes += it->second.resident_bytes;
  }
  return total;
}

void BlockCache::SnapshotAll(Stats* aggregate, std::map<IoTenantId, Stats>* per_tenant) const {
  // One all-shard locked pass (index order, like stats()/tenant_stats()):
  // every slice and the aggregate describe the same instant, so the exported
  // snapshot can never be torn — per-tenant invariants hold and the tenant
  // slices sum to the aggregate exactly.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  *aggregate = Stats{};
  per_tenant->clear();
  for (const auto& shard : shards_) {
    aggregate->lookups += shard->stats.lookups;
    aggregate->hits += shard->stats.hits;
    aggregate->misses += shard->stats.misses;
    aggregate->insertions += shard->stats.insertions;
    aggregate->evictions += shard->stats.evictions;
    aggregate->spill_writes += shard->stats.spill_writes;
    aggregate->spill_hits += shard->stats.spill_hits;
    aggregate->corruptions += shard->stats.corruptions;
    aggregate->cross_tenant_hits += shard->stats.cross_tenant_hits;
    aggregate->resident_bytes += shard->resident_bytes;
    for (const auto& [id, tenant_shard] : shard->tenants) {
      Stats& slice = (*per_tenant)[id];
      const Stats& s = tenant_shard.stats;
      slice.lookups += s.lookups;
      slice.hits += s.hits;
      slice.misses += s.misses;
      slice.insertions += s.insertions;
      slice.evictions += s.evictions;
      slice.spill_writes += s.spill_writes;
      slice.spill_hits += s.spill_hits;
      slice.corruptions += s.corruptions;
      slice.cross_tenant_hits += s.cross_tenant_hits;
      slice.resident_bytes += tenant_shard.resident_bytes;
    }
  }
}

bool BlockCache::CorruptResidentBlockForTest(const BlockKey& key) {
  const std::string flat = FlattenBlockKey(key);
  Shard& shard = ShardFor(flat);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(flat);
  if (it == shard.index.end() || it->second->bytes->empty()) {
    return false;
  }
  std::string mutated = *it->second->bytes;
  mutated[mutated.size() / 2] = static_cast<char>(mutated[mutated.size() / 2] ^ 0x40);
  // Swap in the flipped copy but keep the original checksum, so verification
  // must catch it.
  it->second->bytes = std::make_shared<const std::string>(std::move(mutated));
  return true;
}

}  // namespace msd
