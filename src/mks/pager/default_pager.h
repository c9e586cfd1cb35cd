// The default pager: the Microkernel Services component that backs anonymous
// memory objects with a paging partition on disk. It is an ordinary
// user-level RPC server speaking the external-memory-object protocol
// (src/mk/pager_protocol.h); the kernel's fault path RPCs to it exactly as it
// would to any personality-provided pager.
#ifndef SRC_MKS_PAGER_DEFAULT_PAGER_H_
#define SRC_MKS_PAGER_DEFAULT_PAGER_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/hw/disk.h"
#include "src/mk/kernel.h"
#include "src/mk/pager_protocol.h"
#include "src/mk/server_loop.h"

namespace mks {

// Abstract block access so the pager can run against the raw disk backdoor
// (tests) or a real driver stack (system assembly).
class BlockStore {
 public:
  virtual ~BlockStore() = default;
  virtual base::Status Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) = 0;
  virtual base::Status Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) = 0;
  // Writes `wcount` sectors at `wlba` and reads the one sector at `rlba`: a
  // block cache's dirty write-back and the miss that forced it. A read
  // inside the run returns the new bytes. When it lies outside, a store may
  // read first and return with the write still on the device (posted); its
  // next command waits for that write, so writes reach the platter in the
  // order they were made. Read and Write return only when their commands
  // are done. The default is synchronous: Write, then Read.
  virtual base::Status WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount,
                                     const void* src, uint64_t rlba, void* out) {
    const base::Status st = Write(env, wlba, wcount, src);
    return st != base::Status::kOk ? st : Read(env, rlba, 1, out);
  }
  // Returns once a posted write is on the platter, with its status. A store
  // that never posts has nothing to wait for.
  virtual base::Status Sync(mk::Env& env) { return base::Status::kOk; }
  virtual uint64_t num_sectors() const = 0;
};

class DefaultPager {
 public:
  static constexpr uint32_t kSectorsPerPage = 4096 / 512;

  DefaultPager(mk::Kernel& kernel, mk::Task* task, std::unique_ptr<BlockStore> store);

  mk::Task* task() const { return task_; }
  mk::PortName receive_port() const { return receive_port_; }
  mk::Port* port_raw() const { return port_raw_; }
  // mk::ServerLoop::Stop semantics: the pager port dies at once.
  void Stop() { loop_->Stop(); }

  // Creates a pager-backed object of `size` bytes registered with the kernel.
  std::shared_ptr<mk::VmObject> CreateBackedObject(uint64_t size);

  // Host-side helper: pre-populates the backing store for (object, page), as
  // if the page had been paged out earlier. Usable before the kernel runs.
  base::Status Preload(uint64_t object_id, uint64_t page_index, const void* page);

  uint64_t pageins_served() const { return pageins_served_; }
  uint64_t pageouts_served() const { return pageouts_served_; }
  // The partition's high-water mark: sectors ever handed out. A terminated
  // object's pages are reused below it.
  uint64_t sectors_allocated() const { return next_lba_; }

 private:
  void Serve(mk::Env& env);
  // The partition LBA of (object, page). A page never written has none
  // (kNotFound) unless `allocate`, which takes the last freed page, else the
  // partition's next unused one, or answers kResourceShortage when the
  // partition is full.
  base::Result<uint64_t> LbaFor(uint64_t object_id, uint64_t page_index, bool allocate);

  mk::Kernel& kernel_;
  mk::Task* task_;
  mk::PortName receive_port_ = mk::kNullPort;
  mk::Port* port_raw_ = nullptr;
  std::unique_ptr<mk::ServerLoop> loop_;
  std::unique_ptr<BlockStore> store_;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> allocation_;  // (obj,page) -> lba
  std::vector<uint64_t> free_lbas_;  // terminated objects' pages, reused last in, first out
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint8_t>> preloaded_;
  uint64_t next_lba_ = 0;
  uint64_t pageins_served_ = 0;
  uint64_t pageouts_served_ = 0;
};

// BlockStore over the disk's host backdoor, with the device latency modelled
// as a sleep (the full driver-based store lives in src/drv). It covers the
// whole disk or the window of `num_sectors` sectors from `first_lba`, which
// it addresses from 0; an extent outside it is kInvalidArgument.
class BackdoorBlockStore : public BlockStore {
 public:
  explicit BackdoorBlockStore(hw::Disk* disk, uint64_t latency_ns = 300'000)
      : BackdoorBlockStore(disk, latency_ns, 0, disk->num_sectors()) {}
  BackdoorBlockStore(hw::Disk* disk, uint64_t latency_ns, uint64_t first_lba,
                     uint64_t num_sectors)
      : disk_(disk), latency_ns_(latency_ns), first_lba_(first_lba), num_sectors_(num_sectors) {
    WPOS_CHECK(first_lba <= disk->num_sectors() && num_sectors <= disk->num_sectors() - first_lba)
        << "block store window runs off the disk";
  }

  base::Status Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) override {
    if (lba > num_sectors_ || count > num_sectors_ - lba) {
      return base::Status::kInvalidArgument;
    }
    env.SleepNs(latency_ns_);
    disk_->ReadSectors(first_lba_ + lba, count, out);
    return base::Status::kOk;
  }
  base::Status Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) override {
    if (lba > num_sectors_ || count > num_sectors_ - lba) {
      return base::Status::kInvalidArgument;
    }
    env.SleepNs(latency_ns_);
    disk_->WriteSectors(first_lba_ + lba, count, src);
    return base::Status::kOk;
  }
  uint64_t num_sectors() const override { return num_sectors_; }

 private:
  hw::Disk* disk_;
  uint64_t latency_ns_;
  uint64_t first_lba_;
  uint64_t num_sectors_;
};

}  // namespace mks

#endif  // SRC_MKS_PAGER_DEFAULT_PAGER_H_
