// Fine-grained-object machinery, reproduced the way the paper criticises it.
//
// Taligent's OODDM and networking frameworks used "complex class hierarchies
// and extensive subclassing to maximize code reuse", yielding "a very large
// number of very short virtual methods". This header gives that style a cost
// model: every virtual method of every class is its own small code region (so
// a deep call chain touches many distinct I-cache lines, exactly like real
// out-of-line virtual functions), and every dispatch touches the object and
// its vtable through the D-cache.
//
// The framework is used by drv::oo (OODDM drivers) and svc::net (the
// fine-grained network stack); the coarse-object counterparts implement the
// same function with a handful of larger functions.
#ifndef SRC_DRV_OO_FINE_GRAINED_H_
#define SRC_DRV_OO_FINE_GRAINED_H_

#include <string>

#include "src/mk/kernel.h"

namespace drv {

// Base of every fine-grained object. Subclasses call Method() at the top of
// each virtual method to model the dispatch + the method's body.
class OoObject {
 public:
  OoObject(mk::Kernel& kernel, const std::string& class_name)
      : kernel_(kernel),
        class_name_(class_name),
        self_sim_(kernel.heap().Allocate(96)),
        vtable_sim_(kernel.heap().Allocate(64)) {}
  virtual ~OoObject() = default;

  const std::string& class_name() const { return class_name_; }
  uint64_t virtual_calls() const { return virtual_calls_; }

 protected:
  // Models one virtual method invocation: vtable load, object state touch,
  // and `body_instructions` executed from a region unique to
  // (class, method).
  void Method(const char* method, uint32_t body_instructions) {
    ++virtual_calls_;
    hw::Cpu& cpu = kernel_.cpu();
    cpu.AccessData(vtable_sim_, 8, /*write=*/false);   // vtable pointer load
    cpu.AccessData(self_sim_, 16, /*write=*/true);     // member state
    const hw::CodeRegion region =
        hw::DefineCode("oo." + class_name_ + "." + method, body_instructions + kDispatchInstr);
    cpu.Execute(region);
  }

  mk::Kernel& kernel_;

 private:
  static constexpr uint32_t kDispatchInstr = 6;  // call through vtable + frame
  std::string class_name_;
  hw::PhysAddr self_sim_;
  hw::PhysAddr vtable_sim_;
  uint64_t virtual_calls_ = 0;
};

}  // namespace drv

#endif  // SRC_DRV_OO_FINE_GRAINED_H_
