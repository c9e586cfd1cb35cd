#include "perfbench/script.h"

#include <algorithm>

#include "src/base/rng.h"
#include "src/svc/fs/protocol.h"

namespace perfbench {

namespace {

// Application compute between system interactions, as in the Table 1 suite
// (bench/lib/workloads.cc): file work is dominated by service interaction,
// graphics frames by user-level work.
constexpr uint32_t kLightCompute = 1200;
constexpr uint32_t kFrameCompute = 20'000;

constexpr uint32_t kSector = 512;

struct Rect {
  uint32_t x, y, w, h;
};

// Emits ops into one part of the script while keeping a model of what they
// do, so every generated call is one that should succeed.
class Gen {
 public:
  Gen(const Script& script, uint64_t seed) : model_(script), rng_(seed) {}

  base::Rng& rng() { return rng_; }
  Model& model() { return model_; }
  void Into(std::vector<Op>* part) {
    part_ = part;
    calls_ = 0;
  }
  uint64_t calls() const { return calls_; }

  void Compute(uint32_t instructions) { Push({.kind = OpKind::kCompute, .a = instructions}); }
  void Mkdir(uint16_t dir) {
    model_.Mkdir(dir);
    Push({.kind = OpKind::kMkdir, .slot = dir});
  }
  void WinCreate(Rect r) {
    model_.WinCreate(static_cast<uint16_t>(rects_.size()));
    Push({.kind = OpKind::kWinCreate,
          .slot = static_cast<uint16_t>(rects_.size()),
          .a = r.x,
          .b = r.y,
          .c = r.w,
          .d = r.h});
    rects_.push_back(r);
  }
  void Open(uint16_t file, bool create) {
    if (create) {
      model_.Create(file);
    }
    Push({.kind = OpKind::kOpen,
          .slot = file,
          .c = (create ? svc::kFsCreate : 0u) | svc::kFsWrite});
  }
  void Close(uint16_t file) { Push({.kind = OpKind::kClose, .slot = file}); }
  void Delete(uint16_t file) {
    model_.Delete(file);
    Push({.kind = OpKind::kDelete, .slot = file});
  }
  void DirList(uint16_t dir) { Push({.kind = OpKind::kDirList, .slot = dir}); }
  void Read(uint16_t file, uint64_t offset, uint32_t len) {
    Push({.kind = OpKind::kRead, .slot = file, .a = static_cast<uint32_t>(offset), .b = len});
  }
  void Write(uint16_t file, uint64_t offset, uint32_t len) {
    const uint32_t salt = next_salt_++;
    std::vector<uint8_t> bytes(len);
    FillBytes(salt, len, bytes.data());
    model_.Write(file, offset, bytes.data(), len);
    Push({.kind = OpKind::kWrite,
          .slot = file,
          .a = static_cast<uint32_t>(offset),
          .b = len,
          .salt = salt});
  }
  // Writes [offset, offset+len) in the small seeded chunks an editor saves in.
  void WriteChunked(uint16_t file, uint64_t offset, uint32_t len) {
    const uint64_t end = offset + len;
    for (uint64_t pos = offset; pos < end;) {
      const uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(128 * rng_.NextInRange(1, 8), end - pos));
      Write(file, pos, chunk);
      Compute(kLightCompute);
      pos += chunk;
    }
  }
  // Sequential re-read of the whole file in sector-sized requests.
  void ReadAll(uint16_t file) {
    const uint64_t size = model_.size(file);
    for (uint64_t off = 0; off < size; off += kSector) {
      Read(file, off, kSector);
      Compute(kLightCompute);
    }
  }
  // A random rectangle inside window `win`, at most max_w x max_h.
  Rect RandomRect(uint16_t win, uint32_t max_w, uint32_t max_h) {
    const Rect& r = rects_[win];
    const uint32_t w = static_cast<uint32_t>(rng_.NextInRange(8, std::min(max_w, r.w)));
    const uint32_t h = static_cast<uint32_t>(rng_.NextInRange(8, std::min(max_h, r.h)));
    return {static_cast<uint32_t>(rng_.NextBelow(r.w - w + 1)),
            static_cast<uint32_t>(rng_.NextBelow(r.h - h + 1)), w, h};
  }
  void Fill(uint16_t win, Rect r) {
    Push({.kind = OpKind::kFill,
          .slot = win,
          .a = r.x,
          .b = r.y,
          .c = r.w,
          .d = r.h,
          .salt = next_salt_++});
  }
  void Blit(uint16_t win, Rect r) {
    Push({.kind = OpKind::kBlit, .slot = win, .a = r.x, .b = r.y, .c = r.w, .d = r.h});
  }
  void Post(uint16_t win) {
    const uint32_t msg = 0x400 + (next_msg_++ & 0xff);
    model_.Post(win, msg);
    Push({.kind = OpKind::kPost, .slot = win, .a = msg});
  }
  void Switch(uint16_t win) {
    model_.Switch(win);
    Push({.kind = OpKind::kSwitch, .slot = win});
  }
  // Message pump: take every pending message of every window. A get is only
  // ever issued on a non-empty queue, so no call blocks.
  void DrainAll() {
    for (uint16_t w = 0; w < model_.windows(); ++w) {
      while (model_.queue_len(w) > 0) {
        model_.Get(w);
        Push({.kind = OpKind::kGet, .slot = w});
      }
    }
  }
  uint16_t windows() const { return static_cast<uint16_t>(rects_.size()); }

 private:
  void Push(const Op& op) {
    if (op.kind != OpKind::kCompute) {
      ++calls_;
    }
    part_->push_back(op);
  }

  Model model_;
  base::Rng rng_;
  std::vector<Op>* part_ = nullptr;
  std::vector<Rect> rects_;
  uint64_t calls_ = 0;
  uint32_t next_salt_ = 1;
  uint32_t next_msg_ = 0;
};

// --- docs: FI1-shaped document processing ---------------------------------------------
// A pool of documents in one directory. Each document session creates or
// edits one document in small chunks, re-reads it for pagination, closes
// it, repaints the status line, pumps a message, refreshes the listing and
// sometimes deletes the document. Documents stay under 24 KB, so the whole
// pool (32 x 24 KB) fits the file server's 1 MB BlockCache.
constexpr uint16_t kDocs = 32;
constexpr uint32_t kDocMax = 24 * 1024;

void DocsPaths(Script* s) {
  s->dirs = {"/", "/works"};
  for (uint16_t i = 0; i < kDocs; ++i) {
    s->files.push_back("/works/doc" + std::to_string(i) + ".wps");
  }
}

void DocsSetup(Gen& g) {
  g.Mkdir(1);
  g.WinCreate({10, 10, 400, 300});   // document window
  g.WinCreate({420, 10, 200, 300});  // file list
}

void DocsSession(Gen& g, uint64_t) {
  base::Rng& rng = g.rng();
  const uint16_t doc = static_cast<uint16_t>(rng.NextBelow(kDocs));
  if (!g.model().exists(doc)) {
    g.Open(doc, /*create=*/true);
    g.WriteChunked(doc, 0, 1024 * static_cast<uint32_t>(rng.NextInRange(4, 24)));
  } else {
    g.Open(doc, /*create=*/false);
    const uint64_t size = g.model().size(doc);
    // Edit from a sector boundary inside the document, possibly growing it.
    const uint64_t offset = kSector * rng.NextBelow(size / kSector + 1);
    const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(
        1024 * rng.NextInRange(1, 8), kDocMax - std::min<uint64_t>(offset, kDocMax)));
    if (len > 0) {
      g.WriteChunked(doc, offset, len);
    }
  }
  g.ReadAll(doc);
  g.Close(doc);
  g.Fill(0, {0, 280, 400, 20});
  g.Blit(0, g.RandomRect(0, 400, 32));
  g.Post(1);
  g.DrainAll();
  if (rng.NextBool(0.25)) {
    g.Switch(static_cast<uint16_t>(rng.NextBelow(2)));
    g.DrainAll();
  }
  g.DirList(1);
  if (rng.NextBool(0.3)) {
    g.Delete(doc);
  }
}

// --- records: FI2-shaped record database ---------------------------------------------
// 48 record files of 64 KB (3 MB, three times the BlockCache) are filled and
// kept open. Each update reads one random 128 B record, computes, and writes
// it back in place. Every 8th update repaints a row, every 32nd pumps a
// message, every 64th switches windows, and every 128th writes a journal
// file that is listed and deleted again.
constexpr uint16_t kRecordFiles = 48;
constexpr uint32_t kRecordFileBytes = 64 * 1024;
constexpr uint32_t kRecord = 128;
constexpr uint16_t kJournal = kRecordFiles;

void RecordsPaths(Script* s) {
  s->dirs = {"/", "/todo"};
  for (uint16_t i = 0; i < kRecordFiles; ++i) {
    s->files.push_back("/todo/list" + std::to_string(i) + ".db");
  }
  s->files.push_back("/todo/journal.log");
}

void RecordsSetup(Gen& g) {
  g.Mkdir(1);
  g.WinCreate({10, 10, 500, 300});   // record list
  g.WinCreate({520, 10, 110, 300});  // detail pane
  for (uint16_t f = 0; f < kRecordFiles; ++f) {
    g.Open(f, /*create=*/true);
    for (uint32_t off = 0; off < kRecordFileBytes; off += 8192) {
      g.Write(f, off, 8192);
    }
  }
}

void RecordUpdate(Gen& g, uint64_t n) {
  base::Rng& rng = g.rng();
  const uint16_t f = static_cast<uint16_t>(rng.NextBelow(kRecordFiles));
  const uint64_t off = kRecord * rng.NextBelow(kRecordFileBytes / kRecord);
  g.Read(f, off, kRecord);
  g.Compute(kLightCompute);
  g.Write(f, off, kRecord);
  if (n % 8 == 7) {
    g.Fill(0, {0, static_cast<uint32_t>(16 * rng.NextBelow(18)), 500, 16});
    g.Blit(0, g.RandomRect(0, 500, 64));
  }
  if (n % 32 == 31) {
    g.Post(1);
    g.DrainAll();
  }
  if (n % 64 == 63) {
    g.Switch(static_cast<uint16_t>(rng.NextBelow(2)));
    g.DrainAll();
  }
  if (n % 128 == 127) {
    g.Open(kJournal, /*create=*/true);
    g.Write(kJournal, 0, 512);
    g.Close(kJournal);
    g.DirList(1);
    g.Delete(kJournal);
  }
}

// --- desktop: Klondike / Swp32 / Wind32-shaped PM work ----------------------------------
// Six windows exist from set-up on. Each frame is game logic, a seeded
// number of fills and blits, sometimes a message volley around the window
// ring and a window switch (both drained by the pump), and every 32nd frame
// saves the game state to a file that is read back, listed and deleted.
void DesktopPaths(Script* s) {
  s->dirs = {"/", "/games"};
  s->files = {"/games/klondike.sav"};
}

void DesktopSetup(Gen& g) {
  g.Mkdir(1);
  g.WinCreate({10, 10, 320, 240});  // the game
  g.WinCreate({340, 10, 120, 90});
  g.WinCreate({470, 10, 120, 90});
  g.WinCreate({340, 110, 120, 90});
  g.WinCreate({470, 110, 120, 90});
  g.WinCreate({340, 210, 120, 90});
}

void DesktopFrame(Gen& g, uint64_t n) {
  base::Rng& rng = g.rng();
  const uint16_t windows = g.windows();
  g.Compute(kFrameCompute);
  const uint64_t fills = rng.NextInRange(2, 12);
  for (uint64_t i = 0; i < fills; ++i) {
    const uint16_t w = rng.NextBool(0.75) ? 0 : static_cast<uint16_t>(rng.NextBelow(windows));
    g.Fill(w, g.RandomRect(w, 64, 48));
  }
  const uint64_t blits = rng.NextInRange(1, 6);
  for (uint64_t i = 0; i < blits; ++i) {
    const uint16_t w = rng.NextBool(0.75) ? 0 : static_cast<uint16_t>(rng.NextBelow(windows));
    g.Blit(w, g.RandomRect(w, 96, 64));
  }
  if (rng.NextBool(0.5)) {
    for (uint16_t w = 0; w < windows; ++w) {
      g.Post(static_cast<uint16_t>((w + 1) % windows));
    }
    g.DrainAll();
  }
  if (rng.NextBool(0.3)) {
    g.Switch(static_cast<uint16_t>(rng.NextBelow(windows)));
    g.DrainAll();
  }
  if (n % 32 == 31) {
    g.Open(0, /*create=*/true);
    g.Write(0, 0, 2048);
    g.Read(0, 0, 2048);
    g.Close(0);
    g.DirList(1);
    g.Delete(0);
  }
}

struct WorkloadDef {
  const char* name;
  void (*paths)(Script*);
  void (*setup)(Gen&);
  void (*unit)(Gen&, uint64_t);  // one session / update / frame
  uint64_t warm_units;
};

const WorkloadDef kWorkloads[] = {
    {"docs", &DocsPaths, &DocsSetup, &DocsSession, 24},
    {"records", &RecordsPaths, &RecordsSetup, &RecordUpdate, 512},
    {"desktop", &DesktopPaths, &DesktopSetup, &DesktopFrame, 64},
};

const WorkloadDef* Find(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace

const char* OpName(OpKind kind) {
  static const char* const kNames[] = {"open", "read",   "write",  "close", "delete",
                                       "dirlist", "fill", "blit",  "post",  "get",
                                       "switch", "mkdir", "wincreate", "compute"};
  return kNames[static_cast<int>(kind)];
}

void FillBytes(uint32_t salt, uint32_t len, uint8_t* out) {
  uint64_t x = 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(salt) + 1);
  for (uint32_t i = 0; i < len; ++i) {
    if (i % 8 == 0) {
      x ^= x >> 29;
      x *= 0xbf58476d1ce4e5b9ull;
    }
    out[i] = static_cast<uint8_t>(x >> (8 * (i % 8)));
  }
}

uint64_t Script::Hash() const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const std::string& f : files) {
    for (char c : f) {
      mix(static_cast<uint8_t>(c));
    }
  }
  for (const std::vector<Op>* part : {&setup, &warm, &window}) {
    mix(part->size());
    for (const Op& op : *part) {
      mix(static_cast<uint64_t>(op.kind) << 16 | op.slot);
      mix(op.a);
      mix(op.b);
      mix(op.c);
      mix(op.d);
      mix(op.salt);
    }
  }
  return h;
}

bool Generate(const std::string& workload, uint64_t seed, uint64_t window_calls, Script* out) {
  const WorkloadDef* def = Find(workload);
  if (def == nullptr) {
    return false;
  }
  *out = Script();
  def->paths(out);
  Gen g(*out, seed);
  g.Into(&out->setup);
  def->setup(g);
  uint64_t n = 0;
  g.Into(&out->warm);
  for (uint64_t i = 0; i < def->warm_units; ++i) {
    def->unit(g, n++);
  }
  g.Into(&out->window);
  while (g.calls() < window_calls) {
    def->unit(g, n++);
  }
  return true;
}

// --- Model -------------------------------------------------------------------------------

Model::Model(const Script& script) {
  for (const std::string& path : script.files) {
    const std::string dir = path.substr(0, path.rfind('/'));
    uint16_t slot = 0;
    for (size_t i = 0; i < script.dirs.size(); ++i) {
      if (script.dirs[i] == (dir.empty() ? "/" : dir)) {
        slot = static_cast<uint16_t>(i);
      }
    }
    file_dir_.push_back(slot);
  }
}

uint64_t Model::size(uint16_t file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.size();
}

size_t Model::dir_count(uint16_t dir) const {
  auto it = dir_entries_.find(dir);
  return it == dir_entries_.end() ? 0 : it->second;
}

size_t Model::queue_len(uint16_t win) const { return queues_[win].size(); }

void Model::Mkdir(uint16_t dir) {
  if (dir != 0) {
    ++dir_entries_[0];  // every directory slot is a child of the root
  }
  dir_entries_.emplace(dir, 0);
}

void Model::Create(uint16_t file) {
  if (files_.emplace(file, std::vector<uint8_t>()).second) {
    ++dir_entries_[DirOf(file)];
  }
}

void Model::Write(uint16_t file, uint64_t offset, const uint8_t* data, uint32_t len) {
  std::vector<uint8_t>& bytes = files_[file];
  if (bytes.size() < offset + len) {
    bytes.resize(offset + len);
  }
  std::copy(data, data + len, bytes.begin() + static_cast<std::ptrdiff_t>(offset));
}

void Model::Delete(uint16_t file) {
  if (files_.erase(file) != 0) {
    --dir_entries_[DirOf(file)];
  }
}

std::span<const uint8_t> Model::Read(uint16_t file, uint64_t offset, uint32_t len) const {
  auto it = files_.find(file);
  if (it == files_.end() || offset >= it->second.size()) {
    return {};
  }
  const uint64_t end = std::min<uint64_t>(it->second.size(), offset + len);
  return std::span<const uint8_t>(it->second).subspan(offset, end - offset);
}

void Model::WinCreate(uint16_t win) {
  if (queues_.size() <= win) {
    queues_.resize(win + 1);
  }
}

void Model::Post(uint16_t win, uint32_t msg) { queues_[win].push_back(msg); }

uint32_t Model::Get(uint16_t win) {
  const uint32_t msg = queues_[win].front();
  queues_[win].pop_front();
  return msg;
}

void Model::Switch(uint16_t win) {
  for (size_t w = 0; w < queues_.size(); ++w) {
    if (w != win) {
      queues_[w].push_back(0x0d);
    }
  }
}

}  // namespace perfbench
