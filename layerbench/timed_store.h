// TimedStore: an ObjectStore decorator that times every data read (Get,
// Open) the drill's io stack sends to storage. Reads arrive on io-scheduler
// threads, so the record is mutex-guarded.
#ifndef LAYERBENCH_TIMED_STORE_H_
#define LAYERBENCH_TIMED_STORE_H_

#include <mutex>
#include <string>
#include <vector>

#include "span_ring.h"
#include "src/storage/object_store.h"

namespace layerbench {

class TimedStore final : public msd::ObjectStore {
 public:
  TimedStore(msd::ObjectStore* base, SpanRing* ring) : base_(base), ring_(ring) {}

  msd::Status Put(const std::string& name, std::string bytes) override {
    return base_->Put(name, std::move(bytes));
  }
  bool Exists(const std::string& name) const override { return base_->Exists(name); }
  msd::Status Delete(const std::string& name) override { return base_->Delete(name); }
  std::vector<std::string> List(const std::string& prefix = "") const override {
    return base_->List(prefix);
  }
  int64_t TotalBytes() const override { return base_->TotalBytes(); }
  bool disk_backed() const override { return base_->disk_backed(); }
  const std::string& root_dir() const override { return base_->root_dir(); }
  msd::Result<int64_t> SizeOf(const std::string& name) const override {
    return base_->SizeOf(name);
  }

  msd::Result<msd::FileHandle> Open(const std::string& name,
                                    msd::MemoryAccountant::NodeId node) const override {
    const int64_t t0 = NowNs();
    ScopedSpan span(ring_, "storage.open", "storage", 0, -1);
    msd::Result<msd::FileHandle> r = base_->Open(name, node);
    Note(t0, r.ok() ? r->size() : 0);
    return r;
  }

  msd::Result<std::string> Get(const std::string& name, int64_t offset,
                               int64_t length) const override {
    const int64_t t0 = NowNs();
    ScopedSpan span(ring_, "storage.get", "storage", 0, -1);
    msd::Result<std::string> r = base_->Get(name, offset, length);
    Note(t0, r.ok() ? static_cast<int64_t>(r->size()) : 0);
    return r;
  }

  // Milliseconds per read, in completion order.
  std::vector<double> read_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_ms_;
  }
  int64_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

 private:
  void Note(int64_t t0, int64_t bytes) const {
    const double ms = (NowNs() - t0) / 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    read_ms_.push_back(ms);
    bytes_ += bytes;
  }

  msd::ObjectStore* base_;
  SpanRing* ring_;
  mutable std::mutex mu_;
  mutable std::vector<double> read_ms_;
  mutable int64_t bytes_ = 0;
};

}  // namespace layerbench

#endif  // LAYERBENCH_TIMED_STORE_H_
