// Simulated network interface with loopback delivery: a transmitted frame
// reappears on the receive side after a wire latency. Enough to exercise the
// NIC drivers' full send/receive code paths.
//
// Registers:
//   kRegTxAddr/kRegTxLen + kRegCommand(kCmdSend)  transmit a frame by DMA
//   kRegRxAddr/kRegRxCap                          driver-provided RX buffer
//   kRegRxLen                                     length of received frame
//   kRegStatus                                    bit0 rx-ready, bit1 tx-done
#ifndef SRC_HW_NIC_H_
#define SRC_HW_NIC_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/hw/machine.h"

namespace hw {

class Nic : public Device {
 public:
  static constexpr uint32_t kRegTxAddr = 0x00;
  static constexpr uint32_t kRegTxLen = 0x04;
  static constexpr uint32_t kRegCommand = 0x08;
  static constexpr uint32_t kRegStatus = 0x0c;
  static constexpr uint32_t kRegRxAddr = 0x10;
  static constexpr uint32_t kRegRxCap = 0x14;
  static constexpr uint32_t kRegRxLen = 0x18;

  static constexpr uint32_t kCmdSend = 1;
  static constexpr uint32_t kCmdRxAck = 2;

  static constexpr uint32_t kStatusRxReady = 1u << 0;
  static constexpr uint32_t kStatusTxDone = 1u << 1;

  static constexpr uint32_t kMaxFrame = 1514;

  Nic(std::string name, int irq_line, Cycles wire_latency = 8000)
      : Device(std::move(name), irq_line), wire_latency_(wire_latency) {}

  uint32_t ReadReg(uint32_t offset) override;
  void WriteReg(uint32_t offset, uint32_t value) override;

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_delivered() const { return frames_delivered_; }

 private:
  void Transmit();
  void TryDeliver();

  Cycles wire_latency_;
  uint32_t reg_tx_addr_ = 0;
  uint32_t reg_tx_len_ = 0;
  uint32_t reg_rx_addr_ = 0;
  uint32_t reg_rx_cap_ = 0;
  uint32_t reg_rx_len_ = 0;
  uint32_t reg_status_ = 0;
  std::deque<std::vector<uint8_t>> in_flight_;
  uint64_t frames_sent_ = 0;
  uint64_t frames_delivered_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_NIC_H_
