// User-level disk driver in the style of [Golub'93]: the driver is an
// ordinary task that maps the device's registers, takes its interrupts as
// reflected messages, and serves block I/O to clients over RPC. A DMA bounce
// buffer of physically contiguous frames carries the data to/from the device.
#ifndef SRC_DRV_DISK_DRIVER_H_
#define SRC_DRV_DISK_DRIVER_H_

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

class DiskDriver {
 public:
  // Max sectors per request, bounded by the DMA bounce buffer (64 KB).
  static constexpr uint32_t kMaxSectors = 128;

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
  bool ValidExtent(uint64_t lba, uint32_t count) const;
  // Writes stage `in` into the DMA buffer; reads land in `out`.
  base::Status DoIo(mk::Env& env, const DiskRequest& req, const uint8_t* in, uint8_t* out);
  // Programs the device for the validated `req`, after finishing a posted
  // write; kIoError when that write failed.
  base::Status StartIo(const DiskRequest& req, const uint8_t* in);
  // Waits for a posted write, if any; kIoError when it failed.
  base::Status FinishPosted();
  // Returns the status register word that ended the wait.
  uint32_t AwaitCompletion(mk::Env& env);

  mk::Kernel& kernel_;
  mk::Task* task_;
  hw::Disk* disk_;
  DriverId driver_id_ = 0;
  mk::PortName service_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop> loop_;
  mk::PortName irq_port_ = mk::kNullPort;
  hw::PhysAddr dma_buffer_ = 0;
  bool posted_ = false;  // a kWriteRead's write is still on the device
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
  // One kWriteRead RPC when the call fits one request.
  base::Status WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount, const void* src,
                             uint64_t rlba, void* out) override;
  // One kSync RPC, only when the last request was a kWriteRead that could
  // post.
  base::Status Sync(mk::Env& env) override;
  uint64_t num_sectors() const override { return num_sectors_; }

 private:
  mk::ClientStub stub_;
  uint64_t num_sectors_;
  bool may_be_posted_ = false;
};

}  // namespace drv

#endif  // SRC_DRV_DISK_DRIVER_H_
