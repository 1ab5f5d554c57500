// BlockCache: a sharded, checksummed LRU over byte-range blocks.
//
// The read-through tier between the loaders and (simulated-)remote storage:
// blocks are keyed by (object, offset, length) — exactly the ranges the MSDF
// readers request (row groups, footers, tails), so a hit returns the same
// bytes a backing Get would, and the data plane stays byte-identical with the
// cache on or off.
//
//  - Sharded: the key hash picks a shard; each shard has its own mutex, LRU
//    list, and slice of the memory budget, so concurrent loaders do not
//    serialize on one lock.
//  - Checksummed: every entry carries its XXH64 at insert time and is
//    re-verified on hit. A mismatch (bit rot, stray write) drops the entry,
//    counts a corruption, and reads as a miss — the caller re-fetches from
//    backing storage instead of serving poison.
//  - Spill tier (optional): evicted blocks are written to a disk-backed
//    ObjectStore and promoted back on demand, checksum-verified against the
//    in-memory spill index — a second-chance tier bigger than RAM.
//  - Multi-tenant (src/service/): every entry is owned by the tenant that
//    inserted it. A registered per-tenant byte budget adds eviction pressure
//    that only ever selects the over-budget tenant's own entries, so one
//    scan-heavy job cannot flush its neighbours — while Lookup hits stay
//    shared across tenants (cross-job dedup is the whole point of co-hosting).
#ifndef SRC_IO_BLOCK_CACHE_H_
#define SRC_IO_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/units.h"
#include "src/storage/object_store.h"

namespace msd {

// Tenant tag threaded through the shared I/O plane (cache entries, scheduler
// queues, loader reads). Tenant 0 is the implicit default for single-job
// sessions — it always exists and has no budget, so legacy call sites that
// never mention tenants keep their exact behaviour.
using IoTenantId = int32_t;
inline constexpr IoTenantId kDefaultIoTenant = 0;

struct BlockKey {
  std::string name;  // object the block belongs to
  int64_t offset = 0;
  int64_t length = 0;
};

class BlockCache {
 public:
  struct Config {
    int64_t capacity_bytes = 256 * kMiB;
    int32_t shards = 8;
    // Evicted blocks spill here when set (disk-backed ObjectStore); nullptr
    // disables the tier. Not owned.
    ObjectStore* spill = nullptr;
  };

  struct Stats {
    int64_t lookups = 0;
    int64_t hits = 0;         // served from memory (includes spill promotions)
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    int64_t spill_writes = 0;  // evictions that landed in the disk tier
    int64_t spill_hits = 0;    // misses rescued by the disk tier
    int64_t corruptions = 0;   // checksum mismatches dropped (memory or spill)
    int64_t resident_bytes = 0;
    // Hits on a block another tenant paid for — the cross-job cache-sharing
    // win the multi-tenant service exists to harvest.
    int64_t cross_tenant_hits = 0;
  };

  explicit BlockCache(Config config);

  // The cached bytes for `key`, or nullptr on miss. Verifies the entry
  // checksum (corrupt entries are dropped and read as a miss) and consults
  // the spill tier before giving up. `tenant` only attributes the stats (and
  // adopts a spill promotion); any tenant hits any tenant's blocks.
  std::shared_ptr<const std::string> Lookup(const BlockKey& key,
                                            IoTenantId tenant = kDefaultIoTenant);

  // Memory-tier-only probe that leaves the hit/miss counters untouched (the
  // checksum is still verified; corruption still counts). The IoScheduler
  // uses it for the re-check under its own mutex, where touching the spill
  // tier's disk would serialize every concurrent fetch.
  std::shared_ptr<const std::string> PeekResident(const BlockKey& key);

  // Inserts (or refreshes) the block owned by `tenant`, evicting LRU entries
  // over the tenant's budget (its own entries only) and the shard budget.
  void Insert(const BlockKey& key, std::shared_ptr<const std::string> bytes,
              IoTenantId tenant = kDefaultIoTenant);

  // Drops the block from every tier (memory and spill index). Returns true if
  // any copy existed. Used by readers that detect payload corruption above
  // the cache (e.g. an MSDF row-group checksum mismatch) to force the next
  // fetch back to authoritative storage.
  bool Erase(const BlockKey& key);

  // ---- Tenant lifecycle (src/service/ control plane) ----
  // Installs (or updates) a per-tenant byte budget, sliced across shards like
  // the global capacity. capacity_bytes = 0 removes the per-tenant pressure
  // (the tenant then competes only under the shard budget).
  void RegisterTenant(IoTenantId tenant, int64_t capacity_bytes);
  // Evicts every block the tenant owns (memory + spill index, nothing is
  // re-spilled) and forgets its budget and counters. Returns the resident
  // bytes released. The aggregate stats() keep the tenant's history.
  int64_t RemoveTenant(IoTenantId tenant);

  // Consistent aggregate snapshot: all shards are locked together, so cross-
  // counter invariants (lookups == hits + misses) hold exactly even under
  // concurrent multi-tenant readers.
  Stats stats() const;
  // Consistent per-tenant view. Lookup-side counters are attributed to the
  // requesting tenant, insertions to the inserter, evictions and resident
  // bytes to the entry's owner.
  Stats tenant_stats(IoTenantId tenant) const;
  // Aggregate + every tenant slice from ONE all-shard locking pass, so the
  // slices and the aggregate describe the same instant (the telemetry
  // export's torn-snapshot guarantee: per-slice invariants hold AND the
  // slices sum to the aggregate exactly). Tenants appear once they have any
  // attributed activity or budget.
  void SnapshotAll(Stats* aggregate, std::map<IoTenantId, Stats>* per_tenant) const;
  const Config& config() const { return config_; }

  // Test hook: flips one bit of the resident copy of `key` without updating
  // its checksum, so the next Lookup must detect the corruption. Returns
  // false if the block is not resident in memory.
  bool CorruptResidentBlockForTest(const BlockKey& key);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> bytes;
    uint64_t checksum = 0;
    IoTenantId owner = kDefaultIoTenant;
  };
  struct SpillMeta {
    uint64_t checksum = 0;
    uint64_t size = 0;
    IoTenantId owner = kDefaultIoTenant;
  };
  // Per-tenant slice of one shard: budget share, resident accounting, and
  // the tenant-attributed counters behind tenant_stats().
  struct TenantShard {
    int64_t budget = 0;  // 0 = no per-tenant pressure
    int64_t resident_bytes = 0;
    Stats stats;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    // Blocks currently living only in the spill tier.
    std::unordered_map<std::string, SpillMeta> spilled;
    int64_t resident_bytes = 0;
    Stats stats;
    std::map<IoTenantId, TenantShard> tenants;
  };

  Shard& ShardFor(const std::string& flat_key);
  // Memory-tier probe (checksum-verified, corruption dropped); shard.mu held.
  std::shared_ptr<const std::string> ResidentLocked(Shard& shard, const std::string& flat_key);
  // Evicts from the back of `shard` until every over-budget tenant and the
  // shard itself fit their budgets; returns the victims destined for the
  // spill tier. Called with shard.mu held.
  std::vector<Entry> EvictLocked(Shard& shard);
  // Unlinks `victim` from the lru + index and fixes global and per-tenant
  // resident accounting (no eviction counter — callers attribute the drop).
  // Returns the iterator after the erased entry. Called with shard.mu held.
  std::list<Entry>::iterator UnlinkLocked(Shard& shard, std::list<Entry>::iterator victim);
  // Writes the victims to the spill tier and records their metadata. Must
  // be called WITHOUT shard.mu held — the Put fsyncs.
  void SpillOutsideLock(Shard& shard, std::vector<Entry> victims);
  std::string SpillBlobName(const std::string& flat_key) const;

  Config config_;
  int64_t per_shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Canonical flat form of a key ("name:offset+length"), shared by the cache
// and the scheduler's in-flight dedup map.
std::string FlattenBlockKey(const BlockKey& key);

}  // namespace msd

#endif  // SRC_IO_BLOCK_CACHE_H_
