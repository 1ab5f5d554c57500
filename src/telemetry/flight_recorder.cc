#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

namespace msd {

namespace fs = std::filesystem;

namespace {

constexpr const char* kBundlePrefix = "bundle-";

// Parses "<dir>/bundle-<seq>" -> seq, or -1 for anything else.
int64_t BundleSeq(const fs::path& path) {
  const std::string name = path.filename().string();
  if (name.rfind(kBundlePrefix, 0) != 0) {
    return -1;
  }
  const std::string digits = name.substr(std::string(kBundlePrefix).size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  return std::strtoll(digits.c_str(), nullptr, 10);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Status WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open bundle file: " + path.string());
  }
  out << content;
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing bundle file: " + path.string());
  }
  return Status::Ok();
}

}  // namespace

FlightRecorder::FlightRecorder(Config config) : config_(std::move(config)) {
  MSD_CHECK(!config_.dir.empty());
  MSD_CHECK(config_.keep_bundles >= 1);
  // Resume numbering past any bundles already on disk (a restarted process
  // must not overwrite an earlier incident's evidence).
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    next_seq_ = std::max(next_seq_, BundleSeq(entry.path()) + 1);
  }
}

Result<std::string> FlightRecorder::Dump(const std::string& reason,
                                         const std::vector<Artifact>& artifacts) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  if (ever_dumped_ &&
      std::chrono::duration_cast<std::chrono::milliseconds>(now - last_dump_).count() <
          config_.min_interval_ms) {
    ++suppressed_;
    return std::string();
  }
  const int64_t seq = next_seq_;
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  const fs::path final_dir = fs::path(config_.dir) / (kBundlePrefix + std::to_string(seq));
  const fs::path tmp_dir = fs::path(config_.dir) / (kBundlePrefix + std::to_string(seq) + ".tmp");
  fs::remove_all(tmp_dir, ec);  // stale staging from a crashed dump
  if (!fs::create_directories(tmp_dir, ec) || ec) {
    return Status::Internal("cannot create bundle staging dir: " + tmp_dir.string());
  }
  for (const Artifact& artifact : artifacts) {
    MSD_RETURN_IF_ERROR(WriteFile(tmp_dir / artifact.filename, artifact.content));
  }
  // Manifest last: a manifest inside the staged dir means every artifact it
  // lists is already durable in that dir.
  const int64_t created_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::system_clock::now().time_since_epoch())
                                 .count();
  std::string manifest = "{\"seq\":" + std::to_string(seq) + ",\"reason\":\"" +
                         JsonEscape(reason) +
                         "\",\"created_unix_ms\":" + std::to_string(created_ms) +
                         ",\"files\":[";
  for (size_t i = 0; i < artifacts.size(); ++i) {
    if (i > 0) {
      manifest += ",";
    }
    manifest.append("\"").append(JsonEscape(artifacts[i].filename)).append("\"");
  }
  manifest += "]}";
  MSD_RETURN_IF_ERROR(WriteFile(tmp_dir / "MANIFEST.json", manifest));
  fs::rename(tmp_dir, final_dir, ec);
  if (ec) {
    return Status::Internal("cannot finalize bundle: " + final_dir.string() + ": " +
                            ec.message());
  }
  next_seq_ = seq + 1;
  ++bundles_written_;
  ever_dumped_ = true;
  last_dump_ = now;
  EnforceRetentionLocked();
  return final_dir.string();
}

void FlightRecorder::EnforceRetentionLocked() {
  std::error_code ec;
  std::vector<std::pair<int64_t, fs::path>> bundles;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const int64_t seq = BundleSeq(entry.path());
    if (seq >= 0) {
      bundles.emplace_back(seq, entry.path());
    }
  }
  if (bundles.size() <= static_cast<size_t>(config_.keep_bundles)) {
    return;
  }
  std::sort(bundles.begin(), bundles.end());
  const size_t excess = bundles.size() - static_cast<size_t>(config_.keep_bundles);
  for (size_t i = 0; i < excess; ++i) {
    fs::remove_all(bundles[i].second, ec);
  }
}

int64_t FlightRecorder::bundles_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bundles_written_;
}

int64_t FlightRecorder::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

}  // namespace msd
