// Toy 16-bit x86-flavoured virtual machine for MVM DOS boxes.
//
// Two execution engines share identical architectural semantics:
//   - the interpreter (every guest instruction decoded each time), and
//   - the block translator (the PowerPC WPOS "instruction set translator
//     that translated blocks of Intel instructions for execution"):
//     basic blocks are translated once at a high one-time cost, then run at
//     a much lower per-instruction cost from the translation cache.
// Guest memory is a 64 KB region of the DOS box task's simulated address
// space, so guest loads/stores go through the real VM and cache model.
#ifndef SRC_PERS_MVM_VM86_H_
#define SRC_PERS_MVM_VM86_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/mk/kernel.h"

namespace pers {

enum class Vm86Reg : uint8_t { kAx = 0, kBx, kCx, kDx, kSi, kDi, kSp, kNumRegs };

// Opcodes (1-byte, fixed-ish encodings; see vm86.cc for operand layout).
enum Vm86Op : uint8_t {
  kOpHlt = 0x00,
  kOpMovImm = 0x01,   // r, imm16
  kOpMovReg = 0x02,   // r, r
  kOpAdd = 0x03,      // r, r
  kOpSub = 0x04,      // r, r
  kOpCmp = 0x05,      // r, r (sets ZF)
  kOpInc = 0x06,      // r
  kOpDec = 0x07,      // r
  kOpJmp = 0x08,      // addr16
  kOpJz = 0x09,       // addr16
  kOpJnz = 0x0a,      // addr16
  kOpLoad = 0x0b,     // r, [addr16]
  kOpStore = 0x0c,    // [addr16], r
  kOpInt = 0x0d,      // imm8 software interrupt
  kOpLoop = 0x0e,     // addr16 (dec CX, jump if != 0)
  kOpLoadIdx = 0x0f,  // r, [SI]
  kOpStoreIdx = 0x10, // [DI], r
  kOpAddImm = 0x11,   // r, imm16
};

struct Vm86State {
  uint16_t regs[static_cast<int>(Vm86Reg::kNumRegs)] = {};
  uint16_t ip = 0;
  bool zf = false;
  bool halted = false;

  uint16_t& reg(Vm86Reg r) { return regs[static_cast<int>(r)]; }
  uint16_t reg(Vm86Reg r) const { return regs[static_cast<int>(r)]; }
};

class Vm86 {
 public:
  static constexpr uint32_t kMemBytes = 64 * 1024;

  // `int_handler` implements software interrupts (the DPMI-ish reflection
  // into MVM); it may touch state and guest memory.
  using IntHandler = std::function<void(mk::Env&, uint8_t vector, Vm86State&)>;

  Vm86(mk::Kernel& kernel, mk::Task* task, IntHandler int_handler);

  // Loads a program image at guest address 0 and resets the machine.
  base::Status LoadProgram(mk::Env& env, const std::vector<uint8_t>& image);

  // Runs up to `max_instructions` guest instructions with the interpreter.
  base::Result<uint64_t> RunInterpreted(mk::Env& env, uint64_t max_instructions);
  // Same, via the block translator + translation cache.
  base::Result<uint64_t> RunTranslated(mk::Env& env, uint64_t max_instructions);

  Vm86State& state() { return state_; }
  hw::VirtAddr guest_base() const { return guest_base_; }
  uint64_t blocks_translated() const { return blocks_translated_; }
  uint64_t translation_cache_hits() const { return cache_hits_; }

  // Guest memory helpers (also used by interrupt handlers).
  base::Result<uint8_t> ReadByte(mk::Env& env, uint16_t addr);
  base::Result<uint16_t> ReadWord(mk::Env& env, uint16_t addr);
  base::Status WriteWord(mk::Env& env, uint16_t addr, uint16_t value);
  base::Status ReadGuest(mk::Env& env, uint16_t addr, void* out, uint32_t len);
  base::Status WriteGuest(mk::Env& env, uint16_t addr, const void* src, uint32_t len);

 private:
  struct TranslatedBlock {
    uint16_t start = 0;
    uint32_t guest_instructions = 0;
  };

  // Executes exactly one instruction (shared semantics for both engines).
  // Returns false when the machine halts or faults.
  base::Result<bool> Step(mk::Env& env);
  // Scans the basic block starting at `ip` (ends at control transfer/HLT).
  base::Result<TranslatedBlock> TranslateBlock(mk::Env& env, uint16_t ip);

  mk::Kernel& kernel_;
  mk::Task* task_;
  IntHandler int_handler_;
  hw::VirtAddr guest_base_ = 0;
  Vm86State state_;
  std::unordered_map<uint16_t, TranslatedBlock> translation_cache_;
  uint64_t blocks_translated_ = 0;
  uint64_t cache_hits_ = 0;
};

// Small assembler for tests/examples.
class Vm86Assembler {
 public:
  Vm86Assembler& MovImm(Vm86Reg r, uint16_t v);
  Vm86Assembler& MovReg(Vm86Reg dst, Vm86Reg src);
  Vm86Assembler& Add(Vm86Reg dst, Vm86Reg src);
  Vm86Assembler& AddImm(Vm86Reg dst, uint16_t v);
  Vm86Assembler& Sub(Vm86Reg dst, Vm86Reg src);
  Vm86Assembler& Cmp(Vm86Reg a, Vm86Reg b);
  Vm86Assembler& Inc(Vm86Reg r);
  Vm86Assembler& Jz(uint16_t addr);
  Vm86Assembler& Load(Vm86Reg r, uint16_t addr);
  Vm86Assembler& Store(uint16_t addr, Vm86Reg r);
  Vm86Assembler& LoadIdx(Vm86Reg r);
  Vm86Assembler& StoreIdx(Vm86Reg r);
  Vm86Assembler& Int(uint8_t vector);
  Vm86Assembler& Loop(uint16_t addr);
  Vm86Assembler& Hlt();
  // Raw data bytes (e.g. strings for INT 21h filenames).
  Vm86Assembler& Bytes(const std::vector<uint8_t>& data);

  uint16_t here() const { return static_cast<uint16_t>(code_.size()); }
  const std::vector<uint8_t>& code() const { return code_; }

 private:
  std::vector<uint8_t> code_;
};

}  // namespace pers

#endif  // SRC_PERS_MVM_VM86_H_
