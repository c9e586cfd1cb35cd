// User-level disk driver in the style of [Golub'93]: the driver is an
// ordinary task that maps the device's registers, takes its interrupts as
// reflected messages, and serves block I/O to clients over RPC. Its disk
// work, DiskEngine, is the monolithic kernel's in-kernel driver too.
#ifndef SRC_DRV_DISK_DRIVER_H_
#define SRC_DRV_DISK_DRIVER_H_

#include <functional>
#include <memory>

#include "src/drv/resource_manager.h"
#include "src/hw/disk.h"
#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"
#include "src/mks/pager/default_pager.h"

namespace drv {

// kWriteRead writes `count` sectors at `lba` from the request's data and
// reads the one sector at `read_lba` into the reply: two device commands in
// one RPC. A `read_lba` inside the run is read after the write, so the reply
// carries the new bytes. Otherwise the read goes first, and the reply is sent
// while the write is still on the device (posted): the driver's next command
// waits for it. kSync waits for a posted write and answers its status.
enum class DiskOp : uint32_t { kRead = 1, kWrite = 2, kInfo = 3, kWriteRead = 4, kSync = 5 };

struct DiskRequest {
  DiskOp op = DiskOp::kRead;
  uint32_t read_lba = 0;  // kWriteRead only; in op's padding, as kRegLba is 32-bit
  uint64_t lba = 0;
  uint32_t count = 0;  // sectors
};
// Every driver RPC copies the request, so a larger one moves simulated numbers.
static_assert(sizeof(DiskRequest) == 24, "read_lba must fit in op's padding");

struct DiskReply {
  int32_t status = 0;
  uint64_t sectors = 0;  // kInfo: disk size
};

// The disk path both systems run, one device command at a time through a
// 64 KB DMA bounce buffer: the extent check, starting a command (after any
// posted write), the completion wait, and kWriteRead's order. DiskDriver and
// baseline::KernelDiskStore differ only in the hooks.
class DiskEngine {
 public:
  // Sectors per command: the DMA buffer's 64 KB.
  static constexpr uint32_t kMaxSectors = 128;

  struct Hooks {
    // Blocks until the disk's next interrupt.
    std::function<base::Status()> take_interrupt;
    // The region starting a command charges; an accessor, so that the
    // region is defined on the first command.
    const hw::CodeRegion& (*io_path)();
    // The address the DMA buffer's copies run against.
    std::function<hw::PhysAddr()> copy_peer;
  };

  DiskEngine(mk::Kernel& kernel, hw::Disk* disk, Hooks hooks);

  // One command. kInvalidArgument for an extent off the disk or longer than
  // kMaxSectors, kIoError when the device errs, or the failed wait's status.
  base::Status Read(uint64_t lba, uint32_t count, void* out) {
    return Io(hw::Disk::kCmdRead, lba, count, nullptr, out);
  }
  base::Status Write(uint64_t lba, uint32_t count, const void* src) {
    return Io(hw::Disk::kCmdWrite, lba, count, src, nullptr);
  }
  // Writes `wcount` sectors at `wlba` and reads the sector at `rlba`. Both
  // extents are checked before either command. A read inside the run goes
  // after the write; otherwise the read goes first, and the write is posted.
  base::Status WriteThenRead(uint64_t wlba, uint32_t wcount, const void* src, uint64_t rlba,
                             void* out);
  // Waits for a posted write, if any: kIoError when it failed, or the failed
  // wait's status.
  base::Status FinishPosted();

 private:
  bool ValidExtent(uint64_t lba, uint32_t count) const;
  base::Status Io(uint32_t cmd, uint64_t lba, uint32_t count, const void* src, void* out);
  // Programs the device for a valid extent, after finishing a posted write.
  base::Status Start(uint32_t cmd, uint64_t lba, uint32_t count, const void* src);

  mk::Kernel& kernel_;
  hw::Disk* disk_;
  Hooks hooks_;
  hw::PhysAddr dma_buffer_ = 0;
  bool posted_ = false;  // a WriteThenRead's write is still on the device
};

class DiskDriver {
 public:
  DiskDriver(mk::Kernel& kernel, mk::Task* task, hw::Disk* disk, ResourceManager* rm);

  mk::Task* task() const { return task_; }
  mk::PortName service_port() const { return service_port_; }
  mk::PortName GrantTo(mk::Task& client);
  // mk::ServerLoop::Stop semantics: the service port dies at once.
  void Stop() { loop_->Stop(); }

  uint64_t requests_served() const { return requests_served_; }
  uint64_t interrupts_taken() const { return interrupts_taken_; }

 private:
  void Serve(mk::Env& env);

  mk::Kernel& kernel_;
  mk::Task* task_;
  hw::Disk* disk_;
  DriverId driver_id_ = 0;
  mk::PortName service_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;
  mk::PortName irq_port_ = mk::kNullPort;
  DiskEngine engine_;
  uint64_t requests_served_ = 0;
  uint64_t interrupts_taken_ = 0;
};

// Client-side block access over the driver's RPC service; plugs into the
// default pager and the file server.
class RpcBlockStore : public mks::BlockStore {
 public:
  RpcBlockStore(mk::PortName service, uint64_t num_sectors)
      : stub_("drv.disk.client", service), num_sectors_(num_sectors) {}

  base::Status Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) override;
  base::Status Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) override;
  // One kWriteRead RPC when the run fits one request. kInvalidArgument for a
  // read sector above UINT32_MAX, which no request can carry.
  base::Status WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount, const void* src,
                             uint64_t rlba, void* out) override;
  // One kSync RPC, only when the last request was a kWriteRead that could
  // post.
  base::Status Sync(mk::Env& env) override;
  uint64_t num_sectors() const override { return num_sectors_; }

 private:
  // Read (`out`) or Write (`src`): one request per DiskEngine::kMaxSectors.
  base::Status Transfer(mk::Env& env, uint64_t lba, uint32_t count, const void* src, void* out);

  mk::ClientStub stub_;
  uint64_t num_sectors_;
  bool may_be_posted_ = false;
};

}  // namespace drv

#endif  // SRC_DRV_DISK_DRIVER_H_
