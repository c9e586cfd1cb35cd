// Tasks: the unit of resource ownership — an address space (VmMap + pmap),
// a port space, and a set of threads, exactly Mach's decomposition.
#ifndef SRC_MK_TASK_H_
#define SRC_MK_TASK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/code_layout.h"
#include "src/hw/types.h"
#include "src/mk/ids.h"
#include "src/mk/pmap.h"
#include "src/mk/port.h"
#include "src/mk/vm_map.h"

namespace mk {

class Thread;

class Task {
 public:
  Task(TaskId id, std::string name, hw::PhysAddr sim_addr, hw::PhysAddr pt_base);
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  TaskId id() const { return id_; }
  const std::string& name() const { return name_; }
  hw::PhysAddr sim_addr() const { return sim_addr_; }

  VmMap& vm_map() { return vm_map_; }
  const VmMap& vm_map() const { return vm_map_; }
  Pmap& pmap() { return pmap_; }
  const Pmap& pmap() const { return pmap_; }
  PortSpace& port_space() { return port_space_; }
  const PortSpace& port_space() const { return port_space_; }

  Port* self_port() const { return self_port_; }
  void set_self_port(Port* p) { self_port_ = p; }

  std::vector<Thread*>& threads() { return threads_; }
  const std::vector<Thread*>& threads() const { return threads_; }

  bool terminated() const { return terminated_; }
  void set_terminated() { terminated_ = true; }

  // The application code region used by Env::Compute for this task; sized at
  // task creation to model the task's instruction working set.
  hw::CodeRegion app_code;

  // Accounting used by footprint experiments.
  uint64_t faults_taken = 0;
  uint64_t zero_fills = 0;
  uint64_t cow_copies = 0;
  uint64_t pageins = 0;

 private:
  TaskId id_;
  std::string name_;
  hw::PhysAddr sim_addr_;
  VmMap vm_map_;
  Pmap pmap_;
  PortSpace port_space_;
  Port* self_port_ = nullptr;
  std::vector<Thread*> threads_;
  bool terminated_ = false;
};

}  // namespace mk

#endif  // SRC_MK_TASK_H_
