#include "src/hw/disk.h"

#include <cstring>

#include "src/base/log.h"

namespace hw {

Disk::Disk(std::string name, int irq_line, const Geometry& geometry)
    : Device(std::move(name), irq_line),
      geometry_(geometry),
      image_(geometry.sectors * kSectorSize) {}

uint32_t Disk::ReadReg(uint32_t offset) {
  switch (offset) {
    case kRegLba:
      return reg_lba_;
    case kRegCount:
      return reg_count_;
    case kRegDmaLo:
      return reg_dma_;
    case kRegStatus:
      return reg_status_;
    default:
      return 0;
  }
}

void Disk::WriteReg(uint32_t offset, uint32_t value) {
  switch (offset) {
    case kRegLba:
      reg_lba_ = value;
      break;
    case kRegCount:
      reg_count_ = value;
      break;
    case kRegDmaLo:
      reg_dma_ = value;
      break;
    case kRegCommand:
      StartCommand(value);
      break;
    case kRegStatus:
      // Writing status clears the done/error bits (interrupt ack at device).
      reg_status_ &= ~(kStatusDone | kStatusError);
      break;
    default:
      break;
  }
}

void Disk::StartCommand(uint32_t cmd) {
  if ((reg_status_ & kStatusBusy) != 0) {
    reg_status_ |= kStatusError;
    return;
  }
  if (static_cast<uint64_t>(reg_lba_) + reg_count_ > geometry_.sectors || reg_count_ == 0) {
    reg_status_ |= kStatusDone | kStatusError;
    RaiseIrq();
    return;
  }
  reg_status_ |= kStatusBusy;
  ++io_count_;

  const bool sequential = reg_lba_ == last_lba_;
  last_lba_ = reg_lba_ + reg_count_;
  const Cycles latency = (sequential ? geometry_.seek_cycles / 8 : geometry_.seek_cycles) +
                         geometry_.per_sector_cycles * reg_count_;

  const uint32_t lba = reg_lba_;
  const uint32_t count = reg_count_;
  const PhysAddr dma = reg_dma_;
  machine()->ScheduleAfter(latency, [this, cmd, lba, count, dma] {
    const uint64_t bytes = static_cast<uint64_t>(count) * kSectorSize;
    if (cmd == kCmdRead) {
      machine()->mem().Write(dma, image_.data() + static_cast<uint64_t>(lba) * kSectorSize, bytes);
    } else if (cmd == kCmdWrite) {
      machine()->mem().Read(dma, image_.data() + static_cast<uint64_t>(lba) * kSectorSize, bytes);
    } else {
      reg_status_ |= kStatusError;
    }
    reg_status_ &= ~kStatusBusy;
    reg_status_ |= kStatusDone;
    RaiseIrq();
  });
}

void Disk::ReadSectors(uint64_t lba, uint32_t count, void* out) const {
  WPOS_CHECK(lba + count <= geometry_.sectors);
  std::memcpy(out, image_.data() + lba * kSectorSize, static_cast<uint64_t>(count) * kSectorSize);
}

void Disk::WriteSectors(uint64_t lba, uint32_t count, const void* src) {
  WPOS_CHECK(lba + count <= geometry_.sectors);
  std::memcpy(image_.data() + lba * kSectorSize, src, static_cast<uint64_t>(count) * kSectorSize);
}

}  // namespace hw
