// Protocol-stack engines, as a networking service would run them.
//
// The same ETH/IP/UDP-style encapsulation is implemented twice:
//   - CoarseStack: a handful of flat functions (the style the paper
//     recommends after the fact);
//   - FineStack: the Taligent style — a chain of fine-grained header and
//     buffer objects with many short virtual methods.
// bench_fine_objects runs identical packets through both.
#ifndef SRC_SVC_NET_STACK_H_
#define SRC_SVC_NET_STACK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/drv/oo/fine_grained.h"
#include "src/mk/kernel.h"

namespace svc {

struct Datagram {
  uint32_t src_addr = 0;
  uint32_t dst_addr = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  std::vector<uint8_t> payload;
};

// Wire format (packed little-endian):
//   [eth: dst6 src6 type2][ip: src4 dst4 proto1 len2][udp: sport2 dport2 len2]
inline constexpr uint32_t kEthHeader = 14;
inline constexpr uint32_t kIpHeader = 11;
inline constexpr uint32_t kUdpHeader = 6;
inline constexpr uint32_t kStackHeaders = kEthHeader + kIpHeader + kUdpHeader;

class StackEngine {
 public:
  virtual ~StackEngine() = default;
  virtual const char* name() const = 0;
  // Builds a frame around `dgram`; returns the wire bytes.
  virtual std::vector<uint8_t> Encapsulate(mk::Env& env, const Datagram& dgram) = 0;
  // Parses a frame; returns false if malformed.
  virtual bool Decapsulate(mk::Env& env, const uint8_t* frame, uint32_t len, Datagram* out) = 0;
};

class CoarseStack : public StackEngine {
 public:
  explicit CoarseStack(mk::Kernel& kernel) : kernel_(kernel) {}
  const char* name() const override { return "coarse"; }
  std::vector<uint8_t> Encapsulate(mk::Env& env, const Datagram& dgram) override;
  bool Decapsulate(mk::Env& env, const uint8_t* frame, uint32_t len, Datagram* out) override;

 private:
  mk::Kernel& kernel_;
};

class FineStack : public StackEngine {
 public:
  explicit FineStack(mk::Kernel& kernel);
  ~FineStack() override;  // out of line: members are incomplete here
  const char* name() const override { return "fine"; }
  std::vector<uint8_t> Encapsulate(mk::Env& env, const Datagram& dgram) override;
  bool Decapsulate(mk::Env& env, const uint8_t* frame, uint32_t len, Datagram* out) override;

 private:
  class TBufferChain;
  class THeader;
  class TEthernetHeader;
  class TIpHeader;
  class TUdpHeader;
  class TChecksumEngine;

  mk::Kernel& kernel_;
  std::unique_ptr<TBufferChain> buffers_;
  std::unique_ptr<TEthernetHeader> eth_;
  std::unique_ptr<TIpHeader> ip_;
  std::unique_ptr<TUdpHeader> udp_;
  std::unique_ptr<TChecksumEngine> checksum_;
};

}  // namespace svc

#endif  // SRC_SVC_NET_STACK_H_
