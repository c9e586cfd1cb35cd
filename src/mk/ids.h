// Identifier types shared across the microkernel.
#ifndef SRC_MK_IDS_H_
#define SRC_MK_IDS_H_

#include <cstdint>

namespace mk {

using TaskId = uint32_t;
using ThreadId = uint32_t;

// A port name is a task-local capability index, as in Mach: it has meaning
// only within one task's port space. 0 is the null name.
using PortName = uint32_t;
inline constexpr PortName kNullPort = 0;

enum class Prot : uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
  kExecute = 4,
};

inline Prot operator|(Prot a, Prot b) {
  return static_cast<Prot>(static_cast<uint8_t>(a) | static_cast<uint8_t>(b));
}
inline bool ProtIncludes(Prot have, Prot want) {
  return (static_cast<uint8_t>(have) & static_cast<uint8_t>(want)) ==
         static_cast<uint8_t>(want);
}

enum class RightType : uint8_t { kReceive, kSend, kSendOnce };

}  // namespace mk

#endif  // SRC_MK_IDS_H_
