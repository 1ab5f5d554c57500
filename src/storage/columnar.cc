#include "src/storage/columnar.h"

#include <functional>
#include <utility>

#include "src/common/hash.h"
#include "src/io/io_scheduler.h"
#include "src/storage/wire.h"

namespace msd {

namespace {
constexpr uint32_t kMagic = 0x4D534446;  // "MSDF"
}  // namespace

std::string Schema::Serialize() const {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(fields.size()));
  for (const Field& f : fields) {
    w.PutBytes(f.name);
    w.PutU8(static_cast<uint8_t>(f.type));
  }
  return w.Take();
}

Result<Schema> Schema::Deserialize(const std::string& bytes) {
  WireReader r(bytes);
  uint32_t n = r.GetU32();
  // Each field is at least a length prefix + type byte; a count claiming
  // more than the payload could hold is corruption, not a big schema.
  if (static_cast<uint64_t>(n) * (sizeof(uint32_t) + 1) > r.remaining()) {
    return Status::DataLoss("corrupt schema: field count exceeds payload");
  }
  Schema schema;
  schema.fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Field f;
    f.name = r.GetBytes();
    f.type = static_cast<FieldType>(r.GetU8());
    schema.fields.push_back(std::move(f));
  }
  if (!r.Ok()) {
    return Status::DataLoss("truncated schema");
  }
  return schema;
}

MsdfWriter::MsdfWriter(Schema schema, MsdfWriteOptions options)
    : schema_(std::move(schema)), options_(options) {
  WireWriter w;
  w.PutU32(kMagic);
  file_ = w.Take();
}

void MsdfWriter::AppendRow(const std::string& row_bytes) {
  MSD_CHECK(!finished_);
  WireWriter w;
  w.PutBytes(row_bytes);
  current_group_.append(w.buffer());
  ++current_group_rows_;
  ++total_rows_;
  if (static_cast<int64_t>(current_group_.size()) >= options_.target_row_group_bytes) {
    FlushGroup();
  }
}

void MsdfWriter::FlushGroup() {
  if (current_group_rows_ == 0) {
    return;
  }
  RowGroupMeta meta;
  meta.offset = static_cast<int64_t>(file_.size());
  WireWriter header;
  header.PutU64(static_cast<uint64_t>(current_group_rows_));
  file_.append(header.buffer());
  file_.append(current_group_);
  meta.bytes = static_cast<int64_t>(file_.size()) - meta.offset;
  meta.row_count = current_group_rows_;
  meta.checksum = Xxh64(std::string_view(file_).substr(
      static_cast<size_t>(meta.offset), static_cast<size_t>(meta.bytes)));
  groups_.push_back(meta);
  current_group_.clear();
  current_group_rows_ = 0;
}

std::string MsdfWriter::Finish() {
  MSD_CHECK(!finished_);
  finished_ = true;
  FlushGroup();
  int64_t footer_offset = static_cast<int64_t>(file_.size());
  WireWriter footer;
  footer.PutBytes(schema_.Serialize());
  footer.PutU64(static_cast<uint64_t>(groups_.size()));
  for (const RowGroupMeta& g : groups_) {
    footer.PutI64(g.offset);
    footer.PutI64(g.bytes);
    footer.PutI64(g.row_count);
    footer.PutU64(g.checksum);
  }
  footer.PutI64(total_rows_);
  file_.append(footer.buffer());
  WireWriter tail;
  tail.PutU64(static_cast<uint64_t>(footer_offset));
  tail.PutU32(kMagic);
  file_.append(tail.buffer());
  return std::move(file_);
}

Result<uint64_t> ParseMsdfTail(std::string_view tail, uint64_t file_size) {
  if (tail.size() != kMsdfTailBytes) {
    return Status::DataLoss("bad MSDF tail size");
  }
  WireReader r(tail);
  uint64_t footer_offset = r.GetU64();
  uint32_t magic = r.GetU32();
  if (!r.Ok() || magic != kMagic) {
    return Status::DataLoss("bad MSDF tail magic");
  }
  if (footer_offset > file_size - kMsdfTailBytes) {
    return Status::DataLoss("bad footer offset");
  }
  return footer_offset;
}

Result<MsdfFileInfo> ParseMsdfFooterBody(std::string_view body, int64_t footer_bytes_total) {
  WireReader r(body);
  std::string schema_bytes = r.GetBytes();
  Result<Schema> schema = Schema::Deserialize(schema_bytes);
  if (!schema.ok()) {
    return schema.status();
  }
  MsdfFileInfo info;
  info.schema = std::move(schema.value());
  uint64_t n_groups = r.GetU64();
  if (n_groups > r.remaining() / (4 * sizeof(int64_t))) {
    return Status::DataLoss("corrupt footer: row-group count exceeds payload");
  }
  info.row_groups.reserve(n_groups);
  for (uint64_t i = 0; i < n_groups; ++i) {
    RowGroupMeta g;
    g.offset = r.GetI64();
    g.bytes = r.GetI64();
    g.row_count = r.GetI64();
    g.checksum = r.GetU64();
    info.row_groups.push_back(g);
  }
  info.total_rows = r.GetI64();
  if (!r.Ok()) {
    return Status::DataLoss("truncated footer");
  }
  info.footer_bytes = footer_bytes_total;
  return info;
}

Result<MsdfFileInfo> ReadMsdfFooter(const std::string& file_bytes) {
  if (file_bytes.size() < sizeof(uint32_t) + kMsdfTailBytes) {
    return Status::DataLoss("file too small for MSDF");
  }
  {
    WireReader head(file_bytes);
    if (head.GetU32() != kMagic) {
      return Status::DataLoss("bad MSDF head magic");
    }
  }
  std::string_view bytes(file_bytes);
  Result<uint64_t> footer_offset =
      ParseMsdfTail(bytes.substr(bytes.size() - kMsdfTailBytes), bytes.size());
  if (!footer_offset.ok()) {
    return footer_offset.status();
  }
  return ParseMsdfFooterBody(
      bytes.substr(footer_offset.value(),
                   bytes.size() - kMsdfTailBytes - footer_offset.value()),
      static_cast<int64_t>(bytes.size() - footer_offset.value()));
}

Result<MsdfReader> MsdfReader::Open(const ObjectStore& store, const std::string& name,
                                    MemoryAccountant* accountant,
                                    MemoryAccountant::NodeId node) {
  Result<FileHandle> handle = store.Open(name, node);
  if (!handle.ok()) {
    return handle.status();
  }
  Result<MsdfFileInfo> info = ReadMsdfFooter(handle->Contents());
  if (!info.ok()) {
    return info.status();
  }
  MsdfReader reader;
  reader.handle_ = std::move(handle.value());
  reader.name_ = name;
  reader.info_ = std::move(info.value());
  reader.accountant_ = accountant;
  reader.node_ = node;
  reader.metadata_charge_ =
      MemCharge(accountant, node, MemCategory::kFileMetadata, reader.info_.footer_bytes);
  return reader;
}

namespace {

// Footer via two ranged reads: the tail (offset + magic), then the footer
// body. The head magic is not checked — that would cost a third Get; the tail
// magic plus the footer self-consistency checks carry the validation. When an
// `invalidate` hook is supplied (cached mode), a range that fails validation
// is dropped from the cache and refetched once from authoritative storage —
// the tail and footer carry no checksum of their own, so the parse checks are
// the corruption detector, and without the refetch a single cached bit-flip
// would permanently brick the open.
Result<MsdfFileInfo> ReadFooterViaRanges(
    const std::function<Result<std::shared_ptr<const std::string>>(int64_t, int64_t)>& fetch,
    const std::function<void(int64_t, int64_t)>& invalidate, int64_t file_size) {
  if (file_size < static_cast<int64_t>(sizeof(uint32_t) + kMsdfTailBytes)) {
    return Status::DataLoss("file too small for MSDF");
  }
  const int64_t tail_begin = file_size - static_cast<int64_t>(kMsdfTailBytes);
  Result<std::shared_ptr<const std::string>> tail =
      fetch(tail_begin, static_cast<int64_t>(kMsdfTailBytes));
  if (!tail.ok()) {
    return tail.status();
  }
  Result<uint64_t> footer_offset =
      ParseMsdfTail(**tail, static_cast<uint64_t>(file_size));
  if (!footer_offset.ok() && invalidate != nullptr) {
    invalidate(tail_begin, static_cast<int64_t>(kMsdfTailBytes));
    tail = fetch(tail_begin, static_cast<int64_t>(kMsdfTailBytes));
    if (!tail.ok()) {
      return tail.status();
    }
    footer_offset = ParseMsdfTail(**tail, static_cast<uint64_t>(file_size));
  }
  if (!footer_offset.ok()) {
    return footer_offset.status();
  }
  const int64_t body_begin = static_cast<int64_t>(footer_offset.value());
  const int64_t body_bytes = file_size - static_cast<int64_t>(kMsdfTailBytes) - body_begin;
  Result<std::shared_ptr<const std::string>> body = fetch(body_begin, body_bytes);
  if (!body.ok()) {
    return body.status();
  }
  Result<MsdfFileInfo> info = ParseMsdfFooterBody(**body, file_size - body_begin);
  if (!info.ok() && invalidate != nullptr) {
    invalidate(body_begin, body_bytes);
    body = fetch(body_begin, body_bytes);
    if (!body.ok()) {
      return body.status();
    }
    info = ParseMsdfFooterBody(**body, file_size - body_begin);
  }
  return info;
}

}  // namespace

Result<std::shared_ptr<const std::string>> MsdfReader::FetchRange(int64_t offset,
                                                                  int64_t length) const {
  if (io_ != nullptr) {
    return io_->ReadBlock(name_, offset, length, tenant_);
  }
  if (range_store_ != nullptr) {
    Result<std::string> bytes = range_store_->Get(name_, offset, length);
    if (!bytes.ok()) {
      return bytes.status();
    }
    return std::make_shared<const std::string>(std::move(bytes.value()));
  }
  Result<std::string> bytes = handle_.Read(offset, length);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return std::make_shared<const std::string>(std::move(bytes.value()));
}

// Shared tail of OpenRanged/OpenCached: `reader` arrives with its backing
// fields (range_store_ or io_, plus name) already set.
Result<MsdfReader> MsdfReader::FinishRangedOpen(MsdfReader reader, int64_t file_size,
                                                MemoryAccountant* accountant,
                                                MemoryAccountant::NodeId node) {
  reader.accountant_ = accountant;
  reader.node_ = node;
  std::function<void(int64_t, int64_t)> invalidate;
  if (reader.io_ != nullptr) {
    // Cached mode: a footer range that fails validation may be a poisoned
    // cache entry — drop it so the refetch goes back to storage. Without a
    // cache the refetch would re-read the same bytes, so skip it.
    IoScheduler* io = reader.io_;
    const std::string name = reader.name_;
    const IoTenantId tenant = reader.tenant_;
    invalidate = [io, name, tenant](int64_t offset, int64_t length) {
      io->Invalidate(name, offset, length, tenant);
    };
  }
  Result<MsdfFileInfo> info = ReadFooterViaRanges(
      [&reader](int64_t offset, int64_t length) { return reader.FetchRange(offset, length); },
      invalidate, file_size);
  if (!info.ok()) {
    return info.status();
  }
  reader.info_ = std::move(info.value());
  reader.socket_charge_ =
      MemCharge(accountant, node, MemCategory::kFileSocket, kSocketBufferBytes);
  reader.metadata_charge_ =
      MemCharge(accountant, node, MemCategory::kFileMetadata, reader.info_.footer_bytes);
  return reader;
}

Result<MsdfReader> MsdfReader::OpenRanged(const ObjectStore& store, const std::string& name,
                                          MemoryAccountant* accountant,
                                          MemoryAccountant::NodeId node) {
  Result<int64_t> size = store.SizeOf(name);
  if (!size.ok()) {
    return size.status();
  }
  MsdfReader reader;
  reader.range_store_ = &store;
  reader.name_ = name;
  return FinishRangedOpen(std::move(reader), size.value(), accountant, node);
}

Result<MsdfReader> MsdfReader::OpenCached(IoScheduler* io, const std::string& name,
                                          MemoryAccountant* accountant,
                                          MemoryAccountant::NodeId node, IoTenantId tenant) {
  MSD_CHECK(io != nullptr);
  Result<int64_t> size = io->store(tenant)->SizeOf(name);
  if (!size.ok()) {
    return size.status();
  }
  MsdfReader reader;
  reader.io_ = io;
  reader.tenant_ = tenant;
  reader.name_ = name;
  return FinishRangedOpen(std::move(reader), size.value(), accountant, node);
}

Result<std::vector<std::string>> MsdfReader::ReadRowGroup(size_t index) {
  if (index >= info_.row_groups.size()) {
    return Status::OutOfRange("row group " + std::to_string(index) + " of " +
                              std::to_string(info_.row_groups.size()));
  }
  const RowGroupMeta& meta = info_.row_groups[index];
  Result<std::shared_ptr<const std::string>> bytes = FetchRange(meta.offset, meta.bytes);
  if (!bytes.ok()) {
    return bytes.status();
  }
  if (Xxh64(**bytes) != meta.checksum) {
    // The bytes were damaged somewhere between the writer and here. In cached
    // mode the poison copy may be sitting in the block cache (a corruption
    // injected at Get time is checksummed as-is on insert, so the cache's own
    // verification cannot catch it) — invalidate and refetch once from
    // authoritative storage before declaring the range lost.
    if (io_ != nullptr) {
      io_->Invalidate(name_, meta.offset, meta.bytes, tenant_);
      bytes = FetchRange(meta.offset, meta.bytes);
      if (!bytes.ok()) {
        return bytes.status();
      }
    }
    if (io_ == nullptr || Xxh64(**bytes) != meta.checksum) {
      return Status::DataLoss("row group " + std::to_string(index) + " of " + name_ +
                              ": checksum mismatch");
    }
  }
  ReleaseBuffer();
  buffer_charge_ = MemCharge(accountant_, node_, MemCategory::kRowGroupBuffer, meta.bytes);
  active_buffer_bytes_ = meta.bytes;

  WireReader r(**bytes);
  uint64_t rows = r.GetU64();
  if (rows > r.remaining() / sizeof(uint32_t)) {
    return Status::DataLoss("corrupt row group " + std::to_string(index) +
                            ": row count exceeds payload");
  }
  std::vector<std::string> out;
  out.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    out.push_back(r.GetBytes());
  }
  if (!r.Ok() || static_cast<int64_t>(rows) != meta.row_count) {
    return Status::DataLoss("corrupt row group " + std::to_string(index));
  }
  return out;
}

void MsdfReader::ReleaseBuffer() {
  buffer_charge_.Release();
  active_buffer_bytes_ = 0;
}

int64_t MsdfReader::ResidentBytes() const {
  return kSocketBufferBytes + info_.footer_bytes + active_buffer_bytes_;
}

}  // namespace msd
