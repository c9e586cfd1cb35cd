// Simulated sector-addressed disk with DMA and completion interrupts.
//
// Register programming model (all 32-bit registers):
//   kRegLba      first sector of the transfer
//   kRegCount    sector count
//   kRegDmaLo    physical DMA address (low 32 bits)
//   kRegCommand  1 = read (disk -> memory), 2 = write (memory -> disk)
//   kRegStatus   bit0 busy, bit1 done, bit2 error
// Writing kRegCommand starts the operation; completion raises the IRQ after
// a seek-plus-transfer latency. A synchronous backdoor (ReadSectors /
// WriteSectors) exists for host-side tools such as mkfs. The platter starts
// zeroed; the host backs a sector's page only once it is first written.
#ifndef SRC_HW_DISK_H_
#define SRC_HW_DISK_H_

#include <cstdint>

#include "src/hw/machine.h"
#include "src/hw/types.h"
#include "src/hw/zero_fill_buffer.h"

namespace hw {

class Disk : public Device {
 public:
  static constexpr uint32_t kSectorSize = 512;

  static constexpr uint32_t kRegLba = 0x00;
  static constexpr uint32_t kRegCount = 0x04;
  static constexpr uint32_t kRegDmaLo = 0x08;
  static constexpr uint32_t kRegCommand = 0x0c;
  static constexpr uint32_t kRegStatus = 0x10;

  static constexpr uint32_t kCmdRead = 1;
  static constexpr uint32_t kCmdWrite = 2;

  static constexpr uint32_t kStatusBusy = 1u << 0;
  static constexpr uint32_t kStatusDone = 1u << 1;
  static constexpr uint32_t kStatusError = 1u << 2;

  struct Geometry {
    uint64_t sectors = 128 * 1024;   // 64 MB disk
    Cycles seek_cycles = 40000;      // ~0.3 ms at 133 MHz
    Cycles per_sector_cycles = 2000;
  };

  Disk(std::string name, int irq_line, const Geometry& geometry);
  Disk(std::string name, int irq_line) : Disk(std::move(name), irq_line, Geometry()) {}

  uint32_t ReadReg(uint32_t offset) override;
  void WriteReg(uint32_t offset, uint32_t value) override;

  // Host backdoor: direct access to the platter image (no cost, no IRQ).
  void ReadSectors(uint64_t lba, uint32_t count, void* out) const;
  void WriteSectors(uint64_t lba, uint32_t count, const void* src);

  uint64_t num_sectors() const { return geometry_.sectors; }
  uint64_t io_count() const { return io_count_; }

 private:
  void StartCommand(uint32_t cmd);

  Geometry geometry_;
  ZeroFillBuffer image_;
  uint32_t reg_lba_ = 0;
  uint32_t reg_count_ = 0;
  uint32_t reg_dma_ = 0;
  uint32_t reg_status_ = 0;
  uint64_t last_lba_ = 0;  // rudimentary seek model: same-track follow-on is cheap
  uint64_t io_count_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_DISK_H_
