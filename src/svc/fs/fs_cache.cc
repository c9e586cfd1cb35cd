#include "src/svc/fs/fs_cache.h"

#include <algorithm>
#include <cstring>

#include "src/svc/fs/file_server.h"

namespace svc {

namespace {
// Extra bytes fetched past a sequential read miss (capped so the fetch stays
// within one kFsMaxIo RPC).
constexpr uint32_t kReadaheadBytes = 32 * 1024;
// Write-behind bound: a coalescing run is flushed once it reaches this.
constexpr uint32_t kWritebackMaxBytes = 64 * 1024;

// The cache's own lookup/copy work, charged like any other client library
// code so a hit is cheap but not free.
const hw::CodeRegion& CacheHitRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.cache_hit", 60);
  return r;
}
const hw::CodeRegion& CacheMissRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.cache_miss", 40);
  return r;
}

bool Overlaps(uint64_t a_off, uint64_t a_len, uint64_t b_off, uint64_t b_len) {
  return a_off < b_off + b_len && b_off < a_off + a_len;
}
}  // namespace

void FsCache::Observe(mk::Env& env) {
  if (tracer_ == nullptr) {
    tracer_ = &env.kernel().tracer();
    // Late-latch: counts accumulated before the first call with a kernel in
    // scope (there are none today, but keep the registry consistent).
    tracer_->metrics().Counter("mk.fs.cache.hits") = hits_;
    tracer_->metrics().Counter("mk.fs.cache.misses") = misses_;
    tracer_->metrics().Counter("mk.fs.cache.invalidations") = invalidations_;
    tracer_->metrics().Counter("mk.fs.cache.writeback_bytes") = writeback_bytes_;
  }
}

void FsCache::CountHit(uint64_t handle, uint64_t offset) {
  ++hits_;
  if (tracer_ != nullptr) {
    ++tracer_->metrics().Counter("mk.fs.cache.hits");
    tracer_->Emit(mk::trace::EventType::kFsCacheHit, handle, offset);
  }
}

void FsCache::CountMiss() {
  ++misses_;
  if (tracer_ != nullptr) {
    ++tracer_->metrics().Counter("mk.fs.cache.misses");
  }
}

void FsCache::CountInvalidate(uint64_t handle) {
  ++invalidations_;
  if (tracer_ != nullptr) {
    ++tracer_->metrics().Counter("mk.fs.cache.invalidations");
    tracer_->Emit(mk::trace::EventType::kFsCacheInvalidate, handle, generation_);
  }
}

base::Status FsCache::Flush(mk::Env& env, FsClient& client, uint64_t handle, HandleState& s) {
  if (s.wb_data.empty()) {
    return base::Status::kOk;
  }
  // Hand the run back before the client call: a flush error must not leave
  // the same bytes queued forever (every later call would re-fail), and a
  // robust client's re-open re-enters the cache (BumpGeneration).
  const uint64_t offset = s.wb_offset;
  std::vector<uint8_t> run = std::move(s.wb_data);
  s.wb_data.clear();
  uint32_t done = 0;
  while (done < run.size()) {
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(run.size() - done, kFsMaxIo));
    auto wrote = client.UncachedWrite(env, handle, offset + done, run.data() + done, chunk);
    if (!wrote.ok()) {
      return wrote.status();
    }
    done += *wrote;
    writeback_bytes_ += *wrote;
    if (tracer_ != nullptr) {
      tracer_->metrics().Counter("mk.fs.cache.writeback_bytes") += *wrote;
    }
    if (*wrote < chunk) {
      return base::Status::kNoSpace;  // short write: the tail did not land
    }
  }
  return base::Status::kOk;
}

base::Result<uint32_t> FsCache::Read(mk::Env& env, FsClient& client, uint64_t handle,
                                     uint64_t offset, void* out, uint32_t len) {
  Observe(env);
  HandleState& s = handles_[handle];
  if (len == 0) {
    return 0u;
  }
  // Hit: the whole request inside the clean read-ahead span. Writes drop any
  // overlapping span, so cached bytes are what the server would return.
  if (!s.ra_data.empty() && offset >= s.ra_offset &&
      offset + len <= s.ra_offset + s.ra_data.size()) {
    env.kernel().cpu().Execute(CacheHitRegion());
    std::memcpy(out, s.ra_data.data() + (offset - s.ra_offset), len);
    CountHit(handle, offset);
    s.expected_next = offset + len;
    return len;
  }
  env.kernel().cpu().Execute(CacheMissRegion());
  CountMiss();
  // The fetch observes the server's file, so pending write-behind data for
  // this handle must land first — uncached, those writes already would have.
  const base::Status fl = Flush(env, client, handle, s);
  if (fl != base::Status::kOk) {
    return fl;
  }
  // Sequential reads over-fetch; random reads fetch exactly the request.
  uint32_t fetch_len = len;
  if (offset == s.expected_next) {
    fetch_len = static_cast<uint32_t>(
        std::min<uint64_t>(static_cast<uint64_t>(len) + kReadaheadBytes, kFsMaxIo));
  }
  if (fetch_len <= len) {
    // No read-ahead: serve straight into the caller's buffer.
    auto got = client.UncachedRead(env, handle, offset, out, len);
    if (!got.ok()) {
      return got;
    }
    s.ra_data.clear();
    s.expected_next = offset + *got;
    return got;
  }
  std::vector<uint8_t> buf(fetch_len);
  auto got = client.UncachedRead(env, handle, offset, buf.data(), fetch_len);
  if (!got.ok()) {
    return got;
  }
  const uint32_t user = std::min(*got, len);
  std::memcpy(out, buf.data(), user);
  buf.resize(*got);
  s.ra_offset = offset;
  s.ra_data = std::move(buf);
  s.expected_next = offset + user;
  return user;
}

base::Result<uint32_t> FsCache::Write(mk::Env& env, FsClient& client, uint64_t handle,
                                      uint64_t offset, const void* data, uint32_t len) {
  Observe(env);
  HandleState& s = handles_[handle];
  if (len == 0) {
    return 0u;
  }
  // Write-through invalidation: drop any cached read span the write touches.
  if (!s.ra_data.empty() && Overlaps(offset, len, s.ra_offset, s.ra_data.size())) {
    s.ra_data.clear();
    CountInvalidate(handle);
  }
  if (s.attr_valid && offset + len > s.attr.size) {
    s.attr.size = offset + len;  // size grows as if the write already landed
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  // Oversized writes skip the buffer: flush what's pending, go straight out.
  if (len >= kWritebackMaxBytes) {
    const base::Status fl = Flush(env, client, handle, s);
    if (fl != base::Status::kOk) {
      return fl;
    }
    return client.UncachedWrite(env, handle, offset, data, len);
  }
  if (s.wb_data.empty()) {
    s.wb_offset = offset;
    s.wb_data.assign(bytes, bytes + len);
  } else if (offset == s.wb_offset + s.wb_data.size()) {
    // Contiguous append: the common sequential-writer case coalesces.
    s.wb_data.insert(s.wb_data.end(), bytes, bytes + len);
  } else if (offset >= s.wb_offset && offset + len <= s.wb_offset + s.wb_data.size()) {
    // Rewrite entirely inside the pending run: patch in place.
    std::memcpy(s.wb_data.data() + (offset - s.wb_offset), bytes, len);
  } else {
    // Non-contiguous: the old run goes out, a new one starts here.
    const base::Status fl = Flush(env, client, handle, s);
    if (fl != base::Status::kOk) {
      return fl;
    }
    s.wb_offset = offset;
    s.wb_data.assign(bytes, bytes + len);
  }
  if (s.wb_data.size() >= kWritebackMaxBytes) {
    const base::Status fl = Flush(env, client, handle, s);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  return len;
}

base::Result<FileAttr> FsCache::Stat(mk::Env& env, FsClient& client, uint64_t handle) {
  Observe(env);
  HandleState& s = handles_[handle];
  if (s.attr_valid) {
    env.kernel().cpu().Execute(CacheHitRegion());
    CountHit(handle, s.attr.size);
    return s.attr;
  }
  env.kernel().cpu().Execute(CacheMissRegion());
  CountMiss();
  // The server must see pending writes before it reports a size.
  const base::Status fl = Flush(env, client, handle, s);
  if (fl != base::Status::kOk) {
    return fl;
  }
  auto attr = client.UncachedStat(env, handle);
  if (!attr.ok()) {
    return attr;
  }
  s.attr = *attr;
  s.attr_valid = true;
  return attr;
}

base::Status FsCache::FlushHandle(mk::Env& env, FsClient& client, uint64_t handle) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return base::Status::kOk;
  }
  Observe(env);
  return Flush(env, client, handle, it->second);
}

base::Status FsCache::CloseHandle(mk::Env& env, FsClient& client, uint64_t handle) {
  const base::Status st = FlushHandle(env, client, handle);
  handles_.erase(handle);
  return st;
}

void FsCache::InvalidateHandle(uint64_t handle) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return;
  }
  it->second.attr_valid = false;
  it->second.ra_data.clear();
  CountInvalidate(handle);
}

void FsCache::PrimeAttr(uint64_t handle, const FileAttr& attr) {
  HandleState& s = handles_[handle];
  s.attr = attr;
  s.attr_valid = true;
}

void FsCache::BumpGeneration() {
  ++generation_;
  for (auto& [handle, s] : handles_) {
    s.attr_valid = false;
    s.ra_data.clear();
    // wb_data survives: dirty bytes the respawned server has not seen yet.
  }
  CountInvalidate(0);
}

}  // namespace svc
