#include "src/drv/disk_driver.h"

#include <cstdint>
#include <cstring>
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

DiskDriver::DiskDriver(mk::Kernel& kernel, mk::Task* task, hw::Disk* disk, ResourceManager* rm)
    : kernel_(kernel), task_(task), disk_(disk) {
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
  auto dma = kernel_.machine().mem().AllocContiguous(kMaxSectors * hw::Disk::kSectorSize /
                                                     hw::kPageSize);
  WPOS_CHECK(dma.ok()) << "no contiguous memory for disk DMA buffer";
  dma_buffer_ = *dma;
  loop_ = std::make_unique<mk::ServerLoop>(service_port_, "disk",
                                           kMaxSectors * hw::Disk::kSectorSize);
  kernel_.CreateThread(task_, "disk-driver", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 4);
}

mk::PortName DiskDriver::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, service_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

uint32_t DiskDriver::AwaitCompletion(mk::Env& env) {
  uint32_t status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  while ((status & hw::Disk::kStatusDone) == 0) {
    mk::MachMessage msg;
    const base::Status st = kernel_.MachMsgReceive(irq_port_, &msg);
    if (st != base::Status::kOk) {
      return status;
    }
    ++interrupts_taken_;
    kernel_.cpu().Execute(IsrRegion());
    status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  }
  kernel_.IoWrite(disk_, hw::Disk::kRegStatus, 0);  // ack done/error bits
  return status;
}

bool DiskDriver::ValidExtent(uint64_t lba, uint32_t count) const {
  // `lba` comes from the client: no `lba + count`, which wraps for a huge lba.
  return count != 0 && count <= kMaxSectors && lba <= disk_->num_sectors() &&
         count <= disk_->num_sectors() - lba;
}

base::Status DiskDriver::FinishPosted() {
  if (!posted_) {
    return base::Status::kOk;
  }
  posted_ = false;
  // Receive before reading status: the write's interrupt may already be
  // queued, and a status read that found it done would leave that message
  // stale on irq_port_ (queue limit 5). So each command takes one message.
  mk::MachMessage msg;
  if (kernel_.MachMsgReceive(irq_port_, &msg) != base::Status::kOk) {
    return base::Status::kIoError;
  }
  ++interrupts_taken_;
  kernel_.cpu().Execute(IsrRegion());
  const uint32_t status = kernel_.IoRead(disk_, hw::Disk::kRegStatus);
  kernel_.IoWrite(disk_, hw::Disk::kRegStatus, 0);
  // Unreachable, as is DoIo's check after AwaitCompletion: the device
  // model errs only on an extent outside the disk or a command started
  // while it is busy, and the driver validated the posted extent.
  return (status & hw::Disk::kStatusError) != 0 ? base::Status::kIoError : base::Status::kOk;
}

base::Status DiskDriver::StartIo(const DiskRequest& req, const uint8_t* in) {
  const base::Status st = FinishPosted();
  if (st != base::Status::kOk) {
    return st;
  }
  kernel_.cpu().Execute(IoPathRegion());
  if (req.op == DiskOp::kWrite) {
    // Stage data into the DMA buffer.
    const uint64_t bytes = static_cast<uint64_t>(req.count) * hw::Disk::kSectorSize;
    kernel_.machine().mem().Write(dma_buffer_, in, bytes);
    kernel_.ChargeCopy(kernel_.current()->msg_window(), dma_buffer_, bytes);
  }
  kernel_.IoWrite(disk_, hw::Disk::kRegLba, static_cast<uint32_t>(req.lba));
  kernel_.IoWrite(disk_, hw::Disk::kRegCount, req.count);
  kernel_.IoWrite(disk_, hw::Disk::kRegDmaLo, static_cast<uint32_t>(dma_buffer_));
  kernel_.IoWrite(disk_, hw::Disk::kRegCommand,
                  req.op == DiskOp::kRead ? hw::Disk::kCmdRead : hw::Disk::kCmdWrite);
  return base::Status::kOk;
}

base::Status DiskDriver::DoIo(mk::Env& env, const DiskRequest& req, const uint8_t* in,
                              uint8_t* out) {
  if (!ValidExtent(req.lba, req.count)) {
    return base::Status::kInvalidArgument;
  }
  if (StartIo(req, in) != base::Status::kOk ||
      (AwaitCompletion(env) & hw::Disk::kStatusError) != 0) {
    return base::Status::kIoError;
  }
  if (req.op == DiskOp::kRead) {
    const uint64_t bytes = static_cast<uint64_t>(req.count) * hw::Disk::kSectorSize;
    kernel_.machine().mem().Read(dma_buffer_, out, bytes);
    kernel_.ChargeCopy(dma_buffer_, kernel_.current()->msg_window(), bytes);
  }
  return base::Status::kOk;
}

void DiskDriver::Serve(mk::Env& env) {
  std::vector<uint8_t> data(kMaxSectors * hw::Disk::kSectorSize);
  loop_->Run<DiskRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc,
                                   const DiskRequest& req, const uint8_t* ref_data,
                                   uint32_t ref_len) {
    ++requests_served_;
    DiskReply reply;
    switch (req.op) {
      case DiskOp::kInfo:
        reply.sectors = disk_->num_sectors();
        loop_->Reply(rpc, &reply, sizeof(reply));
        break;
      case DiskOp::kRead: {
        reply.status = static_cast<int32_t>(DoIo(env, req, nullptr, data.data()));
        const uint32_t bytes =
            reply.status == 0 ? req.count * hw::Disk::kSectorSize : 0;
        loop_->Reply(rpc, &reply, sizeof(reply), data.data(), bytes);
        break;
      }
      case DiskOp::kWrite: {
        if (ref_len != req.count * hw::Disk::kSectorSize) {
          reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
        } else {
          reply.status = static_cast<int32_t>(DoIo(env, req, ref_data, nullptr));
        }
        loop_->Reply(rpc, &reply, sizeof(reply));
        break;
      }
      case DiskOp::kWriteRead: {
        // Both extents are checked before either command, so a rejected
        // request neither reads nor writes.
        const DiskRequest write{.op = DiskOp::kWrite, .lba = req.lba, .count = req.count};
        const DiskRequest read{.op = DiskOp::kRead, .lba = req.read_lba, .count = 1};
        base::Status st = base::Status::kInvalidArgument;
        if (ref_len == req.count * hw::Disk::kSectorSize && ValidExtent(req.lba, req.count) &&
            ValidExtent(req.read_lba, 1)) {
          if (req.read_lba >= req.lba && req.read_lba - req.lba < req.count) {
            // The reply must carry the new bytes: write, then read.
            st = DoIo(env, write, ref_data, nullptr);
            if (st == base::Status::kOk) {
              st = DoIo(env, read, nullptr, data.data());
            }
          } else {
            // Read, then post the write: the client runs on while it lands.
            st = DoIo(env, read, nullptr, data.data());
            if (st == base::Status::kOk) {
              st = StartIo(write, ref_data);
              posted_ = st == base::Status::kOk;
            }
          }
        }
        reply.status = static_cast<int32_t>(st);
        const uint32_t bytes = st == base::Status::kOk ? hw::Disk::kSectorSize : 0;
        loop_->Reply(rpc, &reply, sizeof(reply), data.data(), bytes);
        break;
      }
      case DiskOp::kSync:
        reply.status = static_cast<int32_t>(FinishPosted());
        loop_->Reply(rpc, &reply, sizeof(reply));
        break;
      default:
        reply.status = static_cast<int32_t>(base::Status::kNotSupported);
        loop_->Reply(rpc, &reply, sizeof(reply));
    }
  });
}

base::Status RpcBlockStore::Read(mk::Env& env, uint64_t lba, uint32_t count, void* out) {
  may_be_posted_ = false;  // the driver finishes a posted write before any command
  uint64_t done = 0;
  while (done < count) {
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(count - done, DiskDriver::kMaxSectors));
    DiskRequest req{.op = DiskOp::kRead, .lba = lba + done, .count = chunk};
    DiskReply reply;
    mk::RpcRef ref;
    ref.recv_buf = static_cast<uint8_t*>(out) + done * hw::Disk::kSectorSize;
    ref.recv_cap = chunk * hw::Disk::kSectorSize;
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

base::Status RpcBlockStore::Write(mk::Env& env, uint64_t lba, uint32_t count, const void* src) {
  may_be_posted_ = false;
  uint64_t done = 0;
  while (done < count) {
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(count - done, DiskDriver::kMaxSectors));
    DiskRequest req{.op = DiskOp::kWrite, .lba = lba + done, .count = chunk};
    DiskReply reply;
    mk::RpcRef ref;
    ref.send_data = static_cast<const uint8_t*>(src) + done * hw::Disk::kSectorSize;
    ref.send_len = chunk * hw::Disk::kSectorSize;
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

base::Status RpcBlockStore::WriteThenRead(mk::Env& env, uint64_t wlba, uint32_t wcount,
                                          const void* src, uint64_t rlba, void* out) {
  // One request carries at most kMaxSectors and a 32-bit read LBA.
  if (wcount > DiskDriver::kMaxSectors || rlba > UINT32_MAX) {
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
