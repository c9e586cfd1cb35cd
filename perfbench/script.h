// Seeded OS/2 op scripts for the end-to-end benchmark, and the host-side
// reference model that checks every call the replay makes.
//
// A script is generated once per (workload, seed, window length) and then
// replayed unchanged on each system, so the WPOS and monolithic columns see
// the same calls with the same arguments and the same bytes. The program
// under test receives only the generated calls; the seed never reaches it.
#ifndef PERFBENCH_SCRIPT_H_
#define PERFBENCH_SCRIPT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// The measured OS/2 API calls (one per Os2ApiBase entry the workloads use),
// plus the two set-up-only calls and the application's own compute.
enum class OpKind : uint8_t {
  kOpen,
  kRead,
  kWrite,
  kClose,
  kDelete,
  kDirList,
  kFill,
  kBlit,
  kPost,
  kGet,
  kSwitch,
  kMkdir,      // set-up only
  kWinCreate,  // set-up only
  kCompute,    // application work between calls; not an API call
};
inline constexpr int kNumMeasuredOps = 11;  // kOpen .. kSwitch
const char* OpName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kCompute;
  uint16_t slot = 0;  // file slot, directory slot or window slot
  uint32_t a = 0;     // offset | x | message id | compute instructions
  uint32_t b = 0;     // length | y
  uint32_t c = 0;     // w | open flags
  uint32_t d = 0;     // h
  uint32_t salt = 0;  // seeds the bytes a write stores (and a fill's colour)
};

// Which part of the script an op belongs to. Set-up and warm-up run before
// the measured window; only window ops are measured.
struct Script {
  std::vector<std::string> files;  // path of each file slot
  std::vector<std::string> dirs;   // path of each directory slot
  std::vector<Op> setup;
  std::vector<Op> warm;
  std::vector<Op> window;
  uint64_t Hash() const;
};

// Builds the script: the workload's set-up and warm-up, then whole units
// (sessions, updates, frames) until the window holds `window_calls` API
// calls. Returns false for an unknown workload name.
bool Generate(const std::string& workload, uint64_t seed, uint64_t window_calls, Script* out);

// Fills `out[0, len)` with the bytes a write with `salt` stores.
void FillBytes(uint32_t salt, uint32_t len, uint8_t* out);

// Host-side reference model: file bytes, directory entry counts and
// per-window message queues. The generator drives it to produce only calls
// that should succeed; the replay drives an independent copy to check what
// each call returned.
class Model {
 public:
  explicit Model(const Script& script);

  bool exists(uint16_t file) const { return files_.contains(file); }
  uint64_t size(uint16_t file) const;
  size_t dir_count(uint16_t dir) const;
  size_t queue_len(uint16_t win) const;
  size_t windows() const { return queues_.size(); }

  void Mkdir(uint16_t dir);
  void Create(uint16_t file);
  void Write(uint16_t file, uint64_t offset, const uint8_t* data, uint32_t len);
  void Delete(uint16_t file);
  // Bytes a read of [offset, offset+len) returns (short at end of file);
  // valid until the file next changes.
  std::span<const uint8_t> Read(uint16_t file, uint64_t offset, uint32_t len) const;
  void WinCreate(uint16_t win);
  void Post(uint16_t win, uint32_t msg);
  uint32_t Get(uint16_t win);
  // Activation broadcast: every other window is sent message 0x0d.
  void Switch(uint16_t win);

 private:
  uint16_t DirOf(uint16_t file) const { return file_dir_[file]; }

  std::vector<uint16_t> file_dir_;  // directory slot of each file slot
  std::map<uint16_t, std::vector<uint8_t>> files_;
  std::map<uint16_t, size_t> dir_entries_;
  std::vector<std::deque<uint32_t>> queues_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPT_H_
