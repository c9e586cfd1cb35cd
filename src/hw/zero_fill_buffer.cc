#include "src/hw/zero_fill_buffer.h"

#include <sys/mman.h>

#include "src/base/log.h"

namespace hw {

// Not calloc: freeing one mapped block raises glibc's mmap threshold (up to
// 32 MB), so the next system's 16 MB RAM comes from the heap and calloc
// memsets it, faulting every page in. MAP_NORESERVE keeps untouched pages
// out of the commit charge.
ZeroFillBuffer::ZeroFillBuffer(uint64_t size)
    : data_(static_cast<uint8_t*>(mmap(nullptr, size, PROT_READ | PROT_WRITE,
                                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))),
      size_(size) {
  WPOS_CHECK(data_ != MAP_FAILED) << "cannot map " << size << " bytes of simulated storage";
}

ZeroFillBuffer::~ZeroFillBuffer() { munmap(data_, size_); }

}  // namespace hw
