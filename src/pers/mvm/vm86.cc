#include "src/pers/mvm/vm86.h"

#include "src/base/log.h"

namespace pers {

namespace {
const hw::CodeRegion& InterpDispatchRegion() {
  // Fetch/decode/dispatch of the interpreter: the per-instruction tax the
  // translator exists to remove.
  static const hw::CodeRegion r = hw::DefineCode("mvm.interp.dispatch", 14);
  return r;
}
const hw::CodeRegion& InterpExecRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mvm.interp.exec", 10);
  return r;
}
const hw::CodeRegion& TranslateRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mvm.xlate.translate", 48);
  return r;
}
const hw::CodeRegion& TranslatedExecRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mvm.xlate.exec", 4);
  return r;
}
const hw::CodeRegion& CacheLookupRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mvm.xlate.cache_lookup", 12);
  return r;
}

uint32_t InstructionLength(uint8_t op) {
  switch (op) {
    case kOpHlt:
      return 1;
    case kOpInc:
    case kOpDec:
      return 2;
    case kOpLoadIdx:
    case kOpStoreIdx:
      return 2;
    case kOpInt:
      return 2;
    case kOpMovReg:
    case kOpAdd:
    case kOpSub:
    case kOpCmp:
      return 3;
    case kOpJmp:
    case kOpJz:
    case kOpJnz:
    case kOpLoop:
      return 3;
    case kOpMovImm:
    case kOpAddImm:
      return 4;
    case kOpLoad:
    case kOpStore:
      return 4;
    default:
      return 0;  // illegal
  }
}

bool IsBlockEnd(uint8_t op) {
  switch (op) {
    case kOpHlt:
    case kOpJmp:
    case kOpJz:
    case kOpJnz:
    case kOpLoop:
    case kOpInt:
      return true;
    default:
      return false;
  }
}
}  // namespace

Vm86::Vm86(mk::Kernel& kernel, mk::Task* task, IntHandler int_handler)
    : kernel_(kernel), task_(task), int_handler_(std::move(int_handler)) {
  auto base = kernel_.VmAllocate(*task_, kMemBytes);
  WPOS_CHECK(base.ok()) << "cannot allocate DOS box memory";
  guest_base_ = *base;
}

base::Status Vm86::LoadProgram(mk::Env& env, const std::vector<uint8_t>& image) {
  if (image.size() > kMemBytes) {
    return base::Status::kTooLarge;
  }
  state_ = Vm86State{};
  translation_cache_.clear();
  return kernel_.CopyOut(*task_, guest_base_, image.data(), image.size());
}

base::Result<uint8_t> Vm86::ReadByte(mk::Env& env, uint16_t addr) {
  uint8_t b = 0;
  const base::Status st = kernel_.CopyIn(*task_, guest_base_ + addr, &b, 1);
  if (st != base::Status::kOk) {
    return st;
  }
  return b;
}

base::Result<uint16_t> Vm86::ReadWord(mk::Env& env, uint16_t addr) {
  uint16_t w = 0;
  const base::Status st = kernel_.CopyIn(*task_, guest_base_ + addr, &w, 2);
  if (st != base::Status::kOk) {
    return st;
  }
  return w;
}

base::Status Vm86::WriteWord(mk::Env& env, uint16_t addr, uint16_t value) {
  return kernel_.CopyOut(*task_, guest_base_ + addr, &value, 2);
}

base::Status Vm86::ReadGuest(mk::Env& env, uint16_t addr, void* out, uint32_t len) {
  return kernel_.CopyIn(*task_, guest_base_ + addr, out, len);
}

base::Status Vm86::WriteGuest(mk::Env& env, uint16_t addr, const void* src, uint32_t len) {
  return kernel_.CopyOut(*task_, guest_base_ + addr, src, len);
}

base::Result<bool> Vm86::Step(mk::Env& env) {
  auto op_r = ReadByte(env, state_.ip);
  if (!op_r.ok()) {
    return op_r.status();
  }
  const uint8_t op = *op_r;
  const uint32_t len = InstructionLength(op);
  if (len == 0) {
    return base::Status::kNotSupported;  // illegal opcode
  }
  uint8_t operand_r = 0;
  uint8_t operand_r2 = 0;
  uint16_t operand_imm = 0;
  if (len >= 2) {
    auto b = ReadByte(env, state_.ip + 1);
    if (!b.ok()) {
      return b.status();
    }
    operand_r = *b;
  }
  if (len == 3 && (op == kOpMovReg || op == kOpAdd || op == kOpSub || op == kOpCmp)) {
    auto b = ReadByte(env, state_.ip + 2);
    if (!b.ok()) {
      return b.status();
    }
    operand_r2 = *b;
  } else if (len == 3) {  // jumps: imm16 at +1
    auto w = ReadWord(env, state_.ip + 1);
    if (!w.ok()) {
      return w.status();
    }
    operand_imm = *w;
  } else if (len == 4) {  // r + imm16
    auto w = ReadWord(env, state_.ip + 2);
    if (!w.ok()) {
      return w.status();
    }
    operand_imm = *w;
  }
  auto reg_of = [&](uint8_t index) -> uint16_t& {
    return state_.regs[index % static_cast<int>(Vm86Reg::kNumRegs)];
  };
  uint16_t next_ip = static_cast<uint16_t>(state_.ip + len);
  switch (op) {
    case kOpHlt:
      state_.halted = true;
      return false;
    case kOpMovImm:
      reg_of(operand_r) = operand_imm;
      break;
    case kOpMovReg:
      reg_of(operand_r) = reg_of(operand_r2);
      break;
    case kOpAdd:
      reg_of(operand_r) = static_cast<uint16_t>(reg_of(operand_r) + reg_of(operand_r2));
      state_.zf = reg_of(operand_r) == 0;
      break;
    case kOpAddImm:
      reg_of(operand_r) = static_cast<uint16_t>(reg_of(operand_r) + operand_imm);
      state_.zf = reg_of(operand_r) == 0;
      break;
    case kOpSub:
      reg_of(operand_r) = static_cast<uint16_t>(reg_of(operand_r) - reg_of(operand_r2));
      state_.zf = reg_of(operand_r) == 0;
      break;
    case kOpCmp:
      state_.zf = reg_of(operand_r) == reg_of(operand_r2);
      break;
    case kOpInc:
      ++reg_of(operand_r);
      state_.zf = reg_of(operand_r) == 0;
      break;
    case kOpDec:
      --reg_of(operand_r);
      state_.zf = reg_of(operand_r) == 0;
      break;
    case kOpJmp:
      next_ip = operand_imm;
      break;
    case kOpJz:
      if (state_.zf) {
        next_ip = operand_imm;
      }
      break;
    case kOpJnz:
      if (!state_.zf) {
        next_ip = operand_imm;
      }
      break;
    case kOpLoop: {
      uint16_t& cx = state_.reg(Vm86Reg::kCx);
      --cx;
      if (cx != 0) {
        next_ip = operand_imm;
      }
      break;
    }
    case kOpLoad: {
      auto w = ReadWord(env, operand_imm);
      if (!w.ok()) {
        return w.status();
      }
      reg_of(operand_r) = *w;
      break;
    }
    case kOpStore: {
      // Encoding: [addr16 at +2], register index at +1.
      const base::Status st = WriteWord(env, operand_imm, reg_of(operand_r));
      if (st != base::Status::kOk) {
        return st;
      }
      break;
    }
    case kOpLoadIdx: {
      auto w = ReadWord(env, state_.reg(Vm86Reg::kSi));
      if (!w.ok()) {
        return w.status();
      }
      reg_of(operand_r) = *w;
      break;
    }
    case kOpStoreIdx: {
      const base::Status st = WriteWord(env, state_.reg(Vm86Reg::kDi), reg_of(operand_r));
      if (st != base::Status::kOk) {
        return st;
      }
      break;
    }
    case kOpInt: {
      state_.ip = next_ip;  // the handler sees the post-INT ip
      if (int_handler_) {
        int_handler_(env, operand_r, state_);
      }
      return !state_.halted;
    }
    default:
      return base::Status::kNotSupported;
  }
  state_.ip = next_ip;
  return true;
}

base::Result<uint64_t> Vm86::RunInterpreted(mk::Env& env, uint64_t max_instructions) {
  uint64_t executed = 0;
  while (!state_.halted && executed < max_instructions) {
    kernel_.cpu().Execute(InterpDispatchRegion());
    kernel_.cpu().Execute(InterpExecRegion());
    auto cont = Step(env);
    if (!cont.ok()) {
      return cont.status();
    }
    ++executed;
    if (!*cont) {
      break;
    }
  }
  return executed;
}

base::Result<Vm86::TranslatedBlock> Vm86::TranslateBlock(mk::Env& env, uint16_t ip) {
  TranslatedBlock block;
  block.start = ip;
  uint16_t cursor = ip;
  while (true) {
    auto op = ReadByte(env, cursor);
    if (!op.ok()) {
      return op.status();
    }
    const uint32_t len = InstructionLength(*op);
    if (len == 0) {
      return base::Status::kNotSupported;
    }
    ++block.guest_instructions;
    // Per-guest-instruction translation cost (decode, emit, fix up).
    kernel_.cpu().ExecuteInstructions(TranslateRegion(), 40);
    cursor = static_cast<uint16_t>(cursor + len);
    if (IsBlockEnd(*op)) {
      break;
    }
  }
  return block;
}

base::Result<uint64_t> Vm86::RunTranslated(mk::Env& env, uint64_t max_instructions) {
  uint64_t executed = 0;
  while (!state_.halted && executed < max_instructions) {
    kernel_.cpu().Execute(CacheLookupRegion());
    auto cached = translation_cache_.find(state_.ip);
    if (cached == translation_cache_.end()) {
      auto block = TranslateBlock(env, state_.ip);
      if (!block.ok()) {
        return block.status();
      }
      ++blocks_translated_;
      cached = translation_cache_.emplace(state_.ip, *block).first;
    } else {
      ++cache_hits_;
    }
    // Execute the block: same semantics as the interpreter, but the
    // per-instruction cost is the translated-code cost, not decode+dispatch.
    const uint32_t block_len = cached->second.guest_instructions;
    for (uint32_t i = 0; i < block_len && !state_.halted && executed < max_instructions; ++i) {
      kernel_.cpu().Execute(TranslatedExecRegion());
      auto cont = Step(env);
      if (!cont.ok()) {
        return cont.status();
      }
      ++executed;
      if (!*cont) {
        return executed;
      }
    }
  }
  return executed;
}

// --- Assembler -----------------------------------------------------------------

Vm86Assembler& Vm86Assembler::MovImm(Vm86Reg r, uint16_t v) {
  code_.push_back(kOpMovImm);
  code_.push_back(static_cast<uint8_t>(r));
  code_.push_back(static_cast<uint8_t>(v));
  code_.push_back(static_cast<uint8_t>(v >> 8));
  return *this;
}
Vm86Assembler& Vm86Assembler::MovReg(Vm86Reg dst, Vm86Reg src) {
  code_.insert(code_.end(),
               {kOpMovReg, static_cast<uint8_t>(dst), static_cast<uint8_t>(src)});
  return *this;
}
Vm86Assembler& Vm86Assembler::Add(Vm86Reg dst, Vm86Reg src) {
  code_.insert(code_.end(), {kOpAdd, static_cast<uint8_t>(dst), static_cast<uint8_t>(src)});
  return *this;
}
Vm86Assembler& Vm86Assembler::AddImm(Vm86Reg dst, uint16_t v) {
  code_.push_back(kOpAddImm);
  code_.push_back(static_cast<uint8_t>(dst));
  code_.push_back(static_cast<uint8_t>(v));
  code_.push_back(static_cast<uint8_t>(v >> 8));
  return *this;
}
Vm86Assembler& Vm86Assembler::Sub(Vm86Reg dst, Vm86Reg src) {
  code_.insert(code_.end(), {kOpSub, static_cast<uint8_t>(dst), static_cast<uint8_t>(src)});
  return *this;
}
Vm86Assembler& Vm86Assembler::Cmp(Vm86Reg a, Vm86Reg b) {
  code_.insert(code_.end(), {kOpCmp, static_cast<uint8_t>(a), static_cast<uint8_t>(b)});
  return *this;
}
Vm86Assembler& Vm86Assembler::Inc(Vm86Reg r) {
  code_.insert(code_.end(), {kOpInc, static_cast<uint8_t>(r)});
  return *this;
}
Vm86Assembler& Vm86Assembler::Jz(uint16_t addr) {
  code_.insert(code_.end(),
               {kOpJz, static_cast<uint8_t>(addr), static_cast<uint8_t>(addr >> 8)});
  return *this;
}
Vm86Assembler& Vm86Assembler::Load(Vm86Reg r, uint16_t addr) {
  code_.push_back(kOpLoad);
  code_.push_back(static_cast<uint8_t>(r));
  code_.push_back(static_cast<uint8_t>(addr));
  code_.push_back(static_cast<uint8_t>(addr >> 8));
  return *this;
}
Vm86Assembler& Vm86Assembler::Store(uint16_t addr, Vm86Reg r) {
  code_.push_back(kOpStore);
  code_.push_back(static_cast<uint8_t>(r));
  code_.push_back(static_cast<uint8_t>(addr));
  code_.push_back(static_cast<uint8_t>(addr >> 8));
  return *this;
}
Vm86Assembler& Vm86Assembler::LoadIdx(Vm86Reg r) {
  code_.insert(code_.end(), {kOpLoadIdx, static_cast<uint8_t>(r)});
  return *this;
}
Vm86Assembler& Vm86Assembler::StoreIdx(Vm86Reg r) {
  code_.insert(code_.end(), {kOpStoreIdx, static_cast<uint8_t>(r)});
  return *this;
}
Vm86Assembler& Vm86Assembler::Int(uint8_t vector) {
  code_.insert(code_.end(), {kOpInt, vector});
  return *this;
}
Vm86Assembler& Vm86Assembler::Loop(uint16_t addr) {
  code_.insert(code_.end(),
               {kOpLoop, static_cast<uint8_t>(addr), static_cast<uint8_t>(addr >> 8)});
  return *this;
}
Vm86Assembler& Vm86Assembler::Hlt() {
  code_.push_back(kOpHlt);
  return *this;
}
Vm86Assembler& Vm86Assembler::Bytes(const std::vector<uint8_t>& data) {
  code_.insert(code_.end(), data.begin(), data.end());
  return *this;
}

}  // namespace pers
