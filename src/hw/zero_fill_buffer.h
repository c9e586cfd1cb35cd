// Host storage behind simulated RAM and disk platters. The simulated machine
// powers up zeroed, but a run touches only a few MB of its 64 MB RAM and
// 128 MB disk, so the bytes live in an anonymous private mapping: untouched
// bytes read as zero and a host page costs memory and time only when the
// simulation first writes it.
#ifndef SRC_HW_ZERO_FILL_BUFFER_H_
#define SRC_HW_ZERO_FILL_BUFFER_H_

#include <cstdint>

namespace hw {

class ZeroFillBuffer {
 public:
  explicit ZeroFillBuffer(uint64_t size);
  ~ZeroFillBuffer();
  ZeroFillBuffer(const ZeroFillBuffer&) = delete;
  ZeroFillBuffer& operator=(const ZeroFillBuffer&) = delete;

  uint64_t size() const { return size_; }
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }

 private:
  uint8_t* data_;
  uint64_t size_;
};

}  // namespace hw

#endif  // SRC_HW_ZERO_FILL_BUFFER_H_
