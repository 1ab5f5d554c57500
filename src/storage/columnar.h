// MSDF ("MegaScale Data Format"): the Parquet stand-in.
//
// Layout:
//   [magic u32]
//   row group 0: [row_count u64][row: len-prefixed bytes]*
//   row group 1: ...
//   footer: [schema][group index][total_rows]
//   [footer_offset u64][magic u32]
//
// Like Parquet (Sec. 2.3), a reader must (1) open a socket, (2) load the
// footer metadata into memory, and (3) hold a row-group-sized buffer while
// scanning — which is exactly the per-source state whose replication the
// paper eliminates. Row-group target size defaults into the paper's
// 512MB–1GB band but is configurable so tests stay small.
#ifndef SRC_STORAGE_COLUMNAR_H_
#define SRC_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/io/block_cache.h"  // IoTenantId — cached-mode reads carry a tenant tag
#include "src/storage/memory_model.h"
#include "src/storage/object_store.h"

namespace msd {

class IoScheduler;  // src/io/io_scheduler.h — cached ranged-read mode

enum class FieldType : uint8_t { kInt64 = 0, kFloat64 = 1, kBytes = 2 };

struct Field {
  std::string name;
  FieldType type;
  bool operator==(const Field&) const = default;
};

struct Schema {
  std::vector<Field> fields;
  bool operator==(const Schema&) const = default;
  std::string Serialize() const;
  static Result<Schema> Deserialize(const std::string& bytes);
};

struct RowGroupMeta {
  int64_t offset = 0;      // byte offset of the group within the file
  int64_t bytes = 0;       // serialized size of the group
  int64_t row_count = 0;
  // XXH64 of the serialized group, computed at write time. Readers verify it
  // on every fetch, so a bit flip anywhere between the writer and the reader
  // (storage, transport, cache) surfaces as DataLoss instead of poison rows.
  uint64_t checksum = 0;
};

struct MsdfFileInfo {
  Schema schema;
  std::vector<RowGroupMeta> row_groups;
  int64_t total_rows = 0;
  int64_t footer_bytes = 0;  // metadata footprint a reader must keep resident
};

struct MsdfWriteOptions {
  // Flush a row group once its serialized payload reaches this many bytes.
  int64_t target_row_group_bytes = 768 * kMiB;
};

// Streams rows into an in-memory MSDF file image.
class MsdfWriter {
 public:
  MsdfWriter(Schema schema, MsdfWriteOptions options = MsdfWriteOptions());

  void AppendRow(const std::string& row_bytes);
  // Finalizes groups + footer and returns the complete file image.
  std::string Finish();

  int64_t rows_written() const { return total_rows_; }

 private:
  void FlushGroup();

  Schema schema_;
  MsdfWriteOptions options_;
  std::string file_;
  std::string current_group_;
  int64_t current_group_rows_ = 0;
  std::vector<RowGroupMeta> groups_;
  int64_t total_rows_ = 0;
  bool finished_ = false;
};

// Reads an MSDF file in one of three modes. All hold:
//  - footer metadata (charged as kFileMetadata) for the reader's lifetime, and
//  - one row-group buffer (charged as kRowGroupBuffer) while a group is open.
//
//  - Open: the legacy whole-blob mode — a FileHandle aliasing the full blob,
//    row groups are free in-memory slices. Local-storage semantics.
//  - OpenRanged: remote-storage semantics — every row-group (and footer) read
//    is one synchronous ObjectStore::Get, the unit a LatencyInjectingStore
//    charges. This is what the paper's uncached Parquet reader pays.
//  - OpenCached: OpenRanged routed through an IoScheduler, so reads are
//    served from the BlockCache, coalesced with concurrent readers of the
//    same block, and overlap with read-ahead prefetches.
class MsdfReader {
 public:
  static Result<MsdfReader> Open(const ObjectStore& store, const std::string& name,
                                 MemoryAccountant* accountant, MemoryAccountant::NodeId node);
  static Result<MsdfReader> OpenRanged(const ObjectStore& store, const std::string& name,
                                       MemoryAccountant* accountant,
                                       MemoryAccountant::NodeId node);
  static Result<MsdfReader> OpenCached(IoScheduler* io, const std::string& name,
                                       MemoryAccountant* accountant,
                                       MemoryAccountant::NodeId node,
                                       IoTenantId tenant = kDefaultIoTenant);

  const MsdfFileInfo& info() const { return info_; }

  // Loads group `index` into the reader's buffer and returns its rows.
  Result<std::vector<std::string>> ReadRowGroup(size_t index);
  // Drops the active row-group buffer (and its memory charge).
  void ReleaseBuffer();

  // Total resident bytes this reader currently charges (socket + metadata +
  // active buffer) — the "file access state" of Fig. 5a.
  int64_t ResidentBytes() const;

 private:
  MsdfReader() = default;

  // Footer parse + memory charges shared by the ranged/cached factories.
  static Result<MsdfReader> FinishRangedOpen(MsdfReader reader, int64_t file_size,
                                             MemoryAccountant* accountant,
                                             MemoryAccountant::NodeId node);
  // [offset, offset+length) through whichever backing this reader has.
  Result<std::shared_ptr<const std::string>> FetchRange(int64_t offset, int64_t length) const;

  FileHandle handle_;              // whole-blob mode
  const ObjectStore* range_store_ = nullptr;  // ranged mode
  IoScheduler* io_ = nullptr;      // cached mode
  IoTenantId tenant_ = kDefaultIoTenant;  // cached-mode route + stats owner
  std::string name_;
  MsdfFileInfo info_;
  MemoryAccountant* accountant_ = nullptr;
  MemoryAccountant::NodeId node_ = 0;
  MemCharge socket_charge_;        // ranged/cached modes (no FileHandle)
  MemCharge metadata_charge_;
  MemCharge buffer_charge_;
  int64_t active_buffer_bytes_ = 0;
};

// Parses only the footer (cheaply) — used to build loading plans without
// opening a full reader.
Result<MsdfFileInfo> ReadMsdfFooter(const std::string& file_bytes);

// Ranged-footer building blocks (shared by the readers above and the
// read-ahead policy, which resolves footers through the block cache).
inline constexpr size_t kMsdfTailBytes = sizeof(uint64_t) + sizeof(uint32_t);
// Parses the trailing kMsdfTailBytes; returns the footer offset.
Result<uint64_t> ParseMsdfTail(std::string_view tail, uint64_t file_size);
// Parses the footer body [footer_offset, file_size - kMsdfTailBytes).
// `footer_bytes_total` is the resident-metadata charge (tail included).
Result<MsdfFileInfo> ParseMsdfFooterBody(std::string_view body, int64_t footer_bytes_total);

}  // namespace msd

#endif  // SRC_STORAGE_COLUMNAR_H_
