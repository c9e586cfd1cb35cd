#include "src/drv/disk_driver.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/log.h"

namespace drv {

namespace {
const hw::CodeRegion& IoPathRegion() {
  static const hw::CodeRegion r = hw::DefineCode("drv.disk.io_path", 340);
  return r;
}
const hw::CodeRegion& IsrRegion() {
  static const hw::CodeRegion r = hw::DefineCode("drv.disk.isr", 150);
  return r;
}
}  // namespace

DiskEngine::DiskEngine(mk::Kernel& kernel, hw::Disk* disk, Hooks hooks)
    : kernel_(kernel), disk_(disk), hooks_(std::move(hooks)) {
  auto dma = kernel_.machine().mem().AllocContiguous(kMaxSectors * hw::Disk::kSectorSize /
                                                     hw::kPageSize);
  WPOS_CHECK(dma.ok()) << "no contiguous memory for disk DMA buffer";
  dma_buffer_ = *dma;
}

bool DiskEngine::ValidExtent(uint64_t lba, uint32_t count) const {
  // `lba` comes from the client: no `lba + count`, which wraps for a huge lba.
  return count != 0 && count <= kMaxSectors && lba <= disk_->num_sectors() &&
         count <= disk_->num_sectors() - lba;
}

base::Status DiskEngine::FinishPosted() {
  if (!posted_) {
    return base::Status::kOk;
  }
  posted_ = false;
  // Take the interrupt before reading status: it may already be pending,
  // and a status read that found the write done would leave it stale. So
  // each command takes one interrupt.
  const base::Status st = hooks_.take_interrupt();
  if (st != base::Status::kOk) {
    return st;
  }
  const uint32_t status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  kernel_.IoWrite(disk_, hw::Disk::kRegStatus, 0);
  // Unreachable, as is Io's check after its wait: the device model errs
  // only on an extent outside the disk or a command started while it is
  // busy, and the posted extent was valid.
  return (status & hw::Disk::kStatusError) != 0 ? base::Status::kIoError : base::Status::kOk;
}

base::Status DiskEngine::Start(uint32_t cmd, uint64_t lba, uint32_t count, const void* src) {
  const base::Status st = FinishPosted();
  if (st != base::Status::kOk) {
    return st;
  }
  kernel_.cpu().Execute(hooks_.io_path());
  if (cmd == hw::Disk::kCmdWrite) {
    // Stage data into the DMA buffer.
    const uint64_t bytes = static_cast<uint64_t>(count) * hw::Disk::kSectorSize;
    kernel_.machine().mem().Write(dma_buffer_, src, bytes);
    kernel_.ChargeCopy(hooks_.copy_peer(), dma_buffer_, bytes);
  }
  kernel_.IoWrite(disk_, hw::Disk::kRegLba, static_cast<uint32_t>(lba));
  kernel_.IoWrite(disk_, hw::Disk::kRegCount, count);
  kernel_.IoWrite(disk_, hw::Disk::kRegDmaLo, static_cast<uint32_t>(dma_buffer_));
  kernel_.IoWrite(disk_, hw::Disk::kRegCommand, cmd);
  return base::Status::kOk;
}

base::Status DiskEngine::Io(uint32_t cmd, uint64_t lba, uint32_t count, const void* src,
                            void* out) {
  if (!ValidExtent(lba, count)) {
    return base::Status::kInvalidArgument;
  }
  const base::Status started = Start(cmd, lba, count, src);
  if (started != base::Status::kOk) {
    return started;
  }
  uint32_t status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  while ((status & hw::Disk::kStatusDone) == 0) {
    const base::Status st = hooks_.take_interrupt();
    if (st != base::Status::kOk) {
      return st;
    }
    status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  }
  kernel_.IoWrite(disk_, hw::Disk::kRegStatus, 0);  // ack done/error bits
  if ((status & hw::Disk::kStatusError) != 0) {
    return base::Status::kIoError;
  }
  if (cmd == hw::Disk::kCmdRead) {
    const uint64_t bytes = static_cast<uint64_t>(count) * hw::Disk::kSectorSize;
    kernel_.machine().mem().Read(dma_buffer_, out, bytes);
    kernel_.ChargeCopy(dma_buffer_, hooks_.copy_peer(), bytes);
  }
  return base::Status::kOk;
}

base::Status DiskEngine::WriteThenRead(uint64_t wlba, uint32_t wcount, const void* src,
                                       uint64_t rlba, void* out) {
  // Checked before either command, so a rejected call neither reads nor
  // writes.
  if (!ValidExtent(wlba, wcount) || !ValidExtent(rlba, 1)) {
    return base::Status::kInvalidArgument;
  }
  if (rlba >= wlba && rlba - wlba < wcount) {
    // The read must see the new bytes: write, then read.
    const base::Status st = Write(wlba, wcount, src);
    return st != base::Status::kOk ? st : Read(rlba, 1, out);
  }
  // Read, then post the write: the caller runs on while it lands.
  base::Status st = Read(rlba, 1, out);
  if (st == base::Status::kOk) {
    st = Start(hw::Disk::kCmdWrite, wlba, wcount, src);
    posted_ = st == base::Status::kOk;
  }
  return st;
}

DiskDriver::DiskDriver(mk::Kernel& kernel, mk::Task* task, hw::Disk* disk, ResourceManager* rm)
    : kernel_(kernel),
      task_(task),
      disk_(disk),
      engine_(kernel, disk,
              {.take_interrupt =
                   [this] {
                     mk::MachMessage msg;
                     const base::Status st = kernel_.MachMsgReceive(irq_port_, &msg);
                     if (st == base::Status::kOk) {
                       ++interrupts_taken_;
                       kernel_.cpu().Execute(IsrRegion());
                     }
                     return st;
                   },
               .io_path = IoPathRegion,
               .copy_peer = [this] { return kernel_.current()->msg_window(); }}) {
  // Claim the hardware through the resource manager.
  if (rm != nullptr) {
    driver_id_ = rm->RegisterDriver("disk-driver");
    (void)rm->DeclareResource({ResourceKind::kIoWindow, disk_->reg_base()}, "disk registers");
    (void)rm->DeclareResource({ResourceKind::kIrqLine, static_cast<uint64_t>(disk_->irq_line())},
                              "disk irq");
    WPOS_CHECK(rm->Request(driver_id_, {ResourceKind::kIoWindow, disk_->reg_base()}) ==
               base::Status::kOk);
    WPOS_CHECK(rm->Request(driver_id_,
                           {ResourceKind::kIrqLine, static_cast<uint64_t>(disk_->irq_line())}) ==
               base::Status::kOk);
  }
  auto service = kernel_.PortAllocate(*task_);
  WPOS_CHECK(service.ok());
  service_port_ = *service;
  auto irq = kernel_.PortAllocate(*task_);
  WPOS_CHECK(irq.ok());
  irq_port_ = *irq;
  WPOS_CHECK(kernel_.ReflectInterrupt(*task_, static_cast<uint32_t>(disk_->irq_line()),
                                      irq_port_) == base::Status::kOk);
  loop_ = std::make_unique<mk::ServerLoop>(service_port_, "disk",
                                           DiskEngine::kMaxSectors * hw::Disk::kSectorSize);
  kernel_.CreateThread(task_, "disk-driver", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 4);
}

mk::PortName DiskDriver::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, service_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void DiskDriver::Serve(mk::Env& env) {
  std::vector<uint8_t> data(DiskEngine::kMaxSectors * hw::Disk::kSectorSize);
  loop_->Run<DiskRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc,
                                   const DiskRequest& req, const uint8_t* ref_data,
                                   uint32_t ref_len) {
    ++requests_served_;
    // A request that writes carries exactly its run.
    const bool sized = ref_len == req.count * hw::Disk::kSectorSize;
    DiskReply reply;
    base::Status st = base::Status::kOk;
    uint32_t bytes = 0;  // of `data`, sent when the op succeeds
    switch (req.op) {
      case DiskOp::kInfo:
        reply.sectors = disk_->num_sectors();
        break;
      case DiskOp::kRead:
        st = engine_.Read(req.lba, req.count, data.data());
        bytes = req.count * hw::Disk::kSectorSize;
        break;
      case DiskOp::kWrite:
        st = sized ? engine_.Write(req.lba, req.count, ref_data) : base::Status::kInvalidArgument;
        break;
      case DiskOp::kWriteRead:
        st = sized ? engine_.WriteThenRead(req.lba, req.count, ref_data, req.read_lba, data.data())
                   : base::Status::kInvalidArgument;
        bytes = hw::Disk::kSectorSize;
        break;
      case DiskOp::kSync:
        st = engine_.FinishPosted();
        break;
      default:
        st = base::Status::kNotSupported;
    }
    reply.status = static_cast<int32_t>(st);
    loop_->Reply(rpc, &reply, sizeof(reply), data.data(), st == base::Status::kOk ? bytes : 0);
  });
}

base::Status RpcBlockStore::Transfer(mk::Env& env, uint64_t lba, uint32_t count, const void* src,
                                     void* out) {
  may_be_posted_ = false;  // the driver finishes a posted write before any command
  for (uint64_t done = 0; done < count;) {
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(count - done, DiskEngine::kMaxSectors));
    const uint64_t at = done * hw::Disk::kSectorSize;
    DiskRequest req{.op = src != nullptr ? DiskOp::kWrite : DiskOp::kRead,
                    .lba = lba + done,
                    .count = chunk};
    DiskReply reply;
    mk::RpcRef ref;
    if (src != nullptr) {
      ref.send_data = static_cast<const uint8_t*>(src) + at;
      ref.send_len = chunk * hw::Disk::kSectorSize;
    } else {
      ref.recv_buf = static_cast<uint8_t*>(out) + at;
      ref.recv_cap = chunk * hw::Disk::kSectorSize;
    }
    const base::Status st = stub_.Call(env, req, &reply, &ref);
    if (st != base::Status::kOk) {
      return st;
    }
    if (reply.status != 0) {
      return static_cast<base::Status>(reply.status);
    }
    done += chunk;
  }
  return base::Status::kOk;
}

base::Status RpcBlockStore::Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) {
  return Transfer(env, lba, count, nullptr, out);
}

base::Status RpcBlockStore::Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) {
  return Transfer(env, lba, count, src, nullptr);
}

base::Status RpcBlockStore::WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount,
                                          const void* src, uint64_t rlba, void* out) {
  // Neither the 32-bit read_lba field nor the LBA register carries a larger
  // read sector.
  if (rlba > UINT32_MAX) {
    return base::Status::kInvalidArgument;
  }
  // A run longer than one request goes the default way.
  if (wcount > DiskEngine::kMaxSectors) {
    return BlockStore::WriteThenRead(env, wlba, wcount, src, rlba, out);
  }
  DiskRequest req{.op = DiskOp::kWriteRead,
                  .read_lba = static_cast<uint32_t>(rlba),
                  .lba = wlba,
                  .count = wcount};
  DiskReply reply;
  mk::RpcRef ref;
  ref.send_data = src;
  ref.send_len = wcount * hw::Disk::kSectorSize;
  ref.recv_buf = out;
  ref.recv_cap = hw::Disk::kSectorSize;
  may_be_posted_ = rlba < wlba || rlba - wlba >= wcount;
  const base::Status st = stub_.Call(env, req, &reply, &ref);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status RpcBlockStore::Sync(mk::Env& env) {
  if (!may_be_posted_) {
    return base::Status::kOk;
  }
  may_be_posted_ = false;
  DiskRequest req{.op = DiskOp::kSync};
  DiskReply reply;
  const base::Status st = stub_.Call(env, req, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

}  // namespace drv
