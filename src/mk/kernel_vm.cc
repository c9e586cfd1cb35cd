// Virtual memory: allocation, mapping, the page-fault path (zero fill, COW
// shadow chains, external-pager fill), coerced memory, and user-memory
// access with full cost modelling.
#include <cstring>
#include <vector>

#include "src/base/log.h"
#include "src/mk/kernel.h"
#include "src/mk/pager_protocol.h"
#include "src/mk/vm_object.h"

namespace mk {

namespace {
// Concurrency-monitor channel namespace for page-install release/acquire
// edges (FaultIn / ResolveForAccess). High bit keeps frame page numbers
// clear of port ids and memsync word addresses used as channel ids.
constexpr uint64_t kPageInstallChannel = 1ull << 60;

const hw::CodeRegion& FaultEntryRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.fault_entry", Costs::kFaultEntry);
  return r;
}
const hw::CodeRegion& FaultResolveRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.fault_resolve", Costs::kFaultResolve);
  return r;
}
const hw::CodeRegion& ZeroFillRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.zero_fill", Costs::kFaultZeroFill);
  return r;
}
const hw::CodeRegion& CowCopyRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.cow_copy", Costs::kFaultCowCopy);
  return r;
}
const hw::CodeRegion& PmapEnterRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.pmap_enter", Costs::kPmapEnter);
  return r;
}
const hw::CodeRegion& AllocateRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.allocate", Costs::kVmAllocate);
  return r;
}
const hw::CodeRegion& DeallocateRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.deallocate", Costs::kVmDeallocate);
  return r;
}
const hw::CodeRegion& MapObjectRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.map_object", Costs::kVmMapObject);
  return r;
}
const hw::CodeRegion& UserAccessRegion() {
  // The inline access sequence around each user-memory touch.
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.vm.user_access", 24);
  return r;
}
const hw::CodeRegion& PagerWritebackRegion() {
  static const hw::CodeRegion r =
      hw::DefineKernelCode("mk.vm.pager_writeback", Costs::kPagerWritebackPage);
  return r;
}
const hw::CodeRegion& ObjectInvalidateRegion() {
  static const hw::CodeRegion r =
      hw::DefineKernelCode("mk.vm.object_invalidate", Costs::kVmObjectInvalidatePage);
  return r;
}
}  // namespace

// --- Allocation / mapping -------------------------------------------------------

base::Result<hw::VirtAddr> Kernel::VmAllocate(Task& task, uint64_t size) {
  cpu().Execute(AllocateRegion());
  cpu().AccessData(task.sim_addr(), 32, /*write=*/true);
  size = hw::PageRound(size);
  VmMapEntry entry;
  entry.size = size;
  entry.object = std::make_shared<VmObject>(size);
  return task.vm_map().InsertAnywhere(entry);
}

base::Status Kernel::VmAllocateAt(Task& task, hw::VirtAddr addr, uint64_t size) {
  cpu().Execute(AllocateRegion());
  size = hw::PageRound(size);
  VmMapEntry entry;
  entry.start = addr;
  entry.size = size;
  entry.object = std::make_shared<VmObject>(size);
  return task.vm_map().InsertAt(entry);
}

base::Status Kernel::VmDeallocate(Task& task, hw::VirtAddr addr, uint64_t size) {
  cpu().Execute(DeallocateRegion());
  const base::Status st = task.vm_map().Remove(addr, hw::PageRound(size));
  if (st != base::Status::kOk) {
    return st;
  }
  task.pmap().RemoveRange(hw::PageIndex(addr), hw::PageRound(size) >> hw::kPageShift);
  cpu().FlushTlb();  // no selective invalidate on the modelled MMU
  return base::Status::kOk;
}

base::Result<hw::VirtAddr> Kernel::VmMapObject(Task& task, std::shared_ptr<VmObject> object,
                                               uint64_t offset, uint64_t size, Prot prot,
                                               bool anywhere, hw::VirtAddr fixed) {
  cpu().Execute(MapObjectRegion());
  VmMapEntry entry;
  entry.size = hw::PageRound(size);
  entry.object = std::move(object);
  entry.offset = offset;
  entry.prot = prot;
  // Managed file-backed object going live for the first time: tell its pager
  // (the memory_object_init handshake). The chain base matters — a private
  // mapping maps an anonymous shadow over the managed object.
  VmObject* base_obj = entry.object.get();
  while (base_obj->shadow_parent() != nullptr) {
    base_obj = base_obj->shadow_parent().get();
  }
  if (base_obj->backing() == VmObject::Backing::kPager && base_obj->dirty_tracking() &&
      !base_obj->pager_initialized() && scheduler_.current() != nullptr &&
      base_obj->pager_port() != nullptr && !base_obj->pager_port()->dead()) {
    PagerRequest req;
    req.op = PagerOp::kObjectSetup;
    req.object_id = base_obj->pager_object_id();
    req.page_index = base_obj->size() >> hw::kPageShift;
    PagerReply reply{};
    uint32_t reply_len = 0;
    // Best effort: a pager that ignores setup still serves data requests.
    (void)RpcCallOnPort(base_obj->pager_port(), &req, sizeof(req), &reply, sizeof(reply),
                        &reply_len, nullptr, nullptr, 0, nullptr, kForever);
    base_obj->set_pager_initialized(true);
  }
  if (anywhere) {
    return task.vm_map().InsertAnywhere(entry);
  }
  entry.start = fixed;
  const base::Status st = task.vm_map().InsertAt(entry);
  if (st != base::Status::kOk) {
    return st;
  }
  return fixed;
}

// --- Coerced memory (IBM extension) -------------------------------------------------

base::Result<hw::VirtAddr> Kernel::VmAllocateCoerced(Task& first, uint64_t size) {
  cpu().Execute(AllocateRegion());
  size = hw::PageRound(size);
  if (next_coerced_ + size > VmMap::kCoercedMax) {
    return base::Status::kNoSpace;
  }
  const hw::VirtAddr addr = next_coerced_;
  next_coerced_ += size;
  CoercedRegion region;
  region.addr = addr;
  region.size = size;
  region.object = std::make_shared<VmObject>(size);
  coerced_.push_back(region);

  VmMapEntry entry;
  entry.start = addr;
  entry.size = size;
  entry.object = region.object;
  entry.coerced = true;
  const base::Status st = first.vm_map().InsertAt(entry);
  if (st != base::Status::kOk) {
    return st;
  }
  return addr;
}

base::Status Kernel::VmMapCoerced(Task& task, hw::VirtAddr coerced_addr) {
  cpu().Execute(MapObjectRegion());
  for (const CoercedRegion& region : coerced_) {
    if (region.addr == coerced_addr) {
      VmMapEntry entry;
      entry.start = region.addr;
      entry.size = region.size;
      entry.object = region.object;
      entry.coerced = true;
      return task.vm_map().InsertAt(entry);
    }
  }
  return base::Status::kNotFound;
}

// --- Legacy OOL snapshot -----------------------------------------------------------------

base::Result<std::shared_ptr<VmObject>> Kernel::SnapshotForOol(Task& task, hw::VirtAddr addr,
                                                               uint64_t size) {
  VmMapEntry* entry = task.vm_map().Lookup(addr);
  if (entry == nullptr || addr + size > entry->end()) {
    return base::Status::kInvalidAddress;
  }
  auto original = entry->object;
  auto sender_shadow = std::make_shared<VmObject>(original->size());
  sender_shadow->SetShadow(original);
  auto snapshot = std::make_shared<VmObject>(original->size());
  snapshot->SetShadow(original);
  entry->object = sender_shadow;
  task.pmap().ProtectRange(hw::PageIndex(entry->start), entry->size >> hw::kPageShift,
                           Prot::kRead);
  cpu().FlushTlb();
  return snapshot;
}

// --- Fault path ----------------------------------------------------------------------------

base::Status Kernel::PagerFill(Task& task, VmObject* object, uint64_t page_index,
                               hw::PhysAddr frame) {
  Port* pager = object->pager_port();
  if (pager == nullptr || pager->dead()) {
    return base::Status::kPortDead;
  }
  ++task.pageins;
  // Managed (dirty-tracked) objects ask for a run of sequential pages per
  // RPC; the pager replies with as many as it can supply from `page_index`
  // on, and the extras are installed so the following faults resolve
  // resident. Unmanaged objects keep the original one-page protocol.
  uint32_t want = 1;
  if (object->dirty_tracking()) {
    const uint64_t object_pages = hw::PageRound(object->size()) >> hw::kPageShift;
    const uint64_t to_end = object_pages > page_index ? object_pages - page_index : 1;
    want = static_cast<uint32_t>(
        to_end < Costs::kMmapReadaheadPages ? to_end : Costs::kMmapReadaheadPages);
  }
  // The faulting thread RPCs to the pager and waits for the data, as in the
  // external-memory-object protocol.
  PagerRequest req;
  req.op = PagerOp::kDataRequest;
  req.object_id = object->pager_object_id();
  req.page_index = page_index + (object->pager_offset() >> hw::kPageShift);
  PagerReply reply{};
  std::vector<uint8_t> page(static_cast<size_t>(want) * hw::kPageSize);
  RpcRef ref;
  ref.recv_buf = page.data();
  ref.recv_cap = static_cast<uint32_t>(page.size());
  uint32_t reply_len = 0;
  const base::Status st = RpcCallOnPort(pager, &req, sizeof(req), &reply, sizeof(reply),
                                        &reply_len, &ref, nullptr, 0, nullptr, kForever);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  machine_->mem().Write(frame, page.data(), hw::kPageSize);
  ChargeCopy(heap_->base(), frame, hw::kPageSize);
  const uint32_t got = ref.recv_len / hw::kPageSize;
  for (uint32_t i = 1; i < got && i < want; ++i) {
    const uint64_t index = page_index + i;
    if (object->HasPage(index)) {
      continue;  // never clobber a page that faulted in (or dirtied) meanwhile
    }
    auto extra = machine_->mem().AllocFrame();
    if (!extra.ok()) {
      break;  // readahead is opportunistic; the demand page already succeeded
    }
    machine_->mem().Write(*extra, page.data() + static_cast<size_t>(i) * hw::kPageSize,
                          hw::kPageSize);
    ChargeCopy(heap_->base(), *extra, hw::kPageSize);
    object->InstallPage(index, *extra);
  }
  return base::Status::kOk;
}

base::Status Kernel::FaultIn(Task& task, VmMapEntry* entry, hw::VirtAddr vaddr, bool write,
                             hw::PhysAddr* out_pa) {
  // A page fault executes in kernel mode: bracket it for the concurrency
  // monitor so the fault-resolution traffic (zero-fill, COW page copy,
  // pager fill) holds the implicit kernel lock instead of racing as user
  // accesses. Observer-only — no simulated cycles — so the cost model and
  // the committed benchmark tables are untouched.
  struct FaultBracket {
    Kernel* kernel;
    Thread* thread;
    FaultBracket(Kernel* k) : kernel(k), thread(k->scheduler_.current()) {
      if (kernel->sync_observer_ != nullptr && thread != nullptr) {
        kernel->sync_observer_->OnKernelEnter(thread);
      }
    }
    ~FaultBracket() {
      if (kernel->sync_observer_ != nullptr && thread != nullptr) {
        kernel->sync_observer_->OnKernelLeave(thread);
      }
    }
  } fault_bracket(this);
  trace::ScopedSpan span(*tracer_, trace::SpanKind::kVmFault, trace::EventType::kVmFault,
                         trace::EventType::kVmFaultDone, vaddr);
  span.set_end_payload(write ? 1 : 0);
  ++tracer_->metrics().Counter("mk.vm.faults");
  cpu().Execute(FaultEntryRegion());
  cpu().Execute(FaultResolveRegion());
  cpu().AccessData(task.sim_addr(), 64, /*write=*/false);
  ++task.faults_taken;

  if (write && !ProtIncludes(entry->prot, Prot::kWrite)) {
    return base::Status::kProtectionFailure;
  }
  VmObject* object = entry->object.get();
  const uint64_t index = entry->PageIndexOf(vaddr);

  const VmObject* owner = nullptr;
  auto resident = object->LookupThroughShadow(index, &owner);
  hw::PhysAddr frame = 0;
  Prot map_prot = entry->prot;

  if (resident.ok()) {
    if (owner == object || !write) {
      frame = *resident;
      if (owner != object) {
        // Page belongs to a shadow parent; keep it read-only so a later
        // write faults and copies.
        map_prot = Prot::kRead;
      } else if (object->dirty_tracking()) {
        // Managed file-backed page: a write fault records the page dirty
        // (and maps it writable); a clean page stays read-only so the first
        // store faults back in here.
        if (write) {
          object->MarkDirty(index);
        } else if (!object->IsDirty(index)) {
          map_prot = Prot::kRead;
        }
      }
    } else {
      // COW: copy the parent's page into this object.
      cpu().Execute(CowCopyRegion());
      auto new_frame = machine_->mem().AllocFrame();
      if (!new_frame.ok()) {
        return base::Status::kResourceShortage;
      }
      std::vector<uint8_t> buf(hw::kPageSize);
      machine_->mem().Read(*resident, buf.data(), buf.size());
      machine_->mem().Write(*new_frame, buf.data(), buf.size());
      ChargeCopy(*resident, *new_frame, hw::kPageSize);
      object->InstallPage(index, *new_frame);
      ++task.cow_copies;
      frame = *new_frame;
    }
  } else {
    // Not resident anywhere in the chain: ask the base object.
    VmObject* base_obj = object;
    while (base_obj->shadow_parent() != nullptr) {
      base_obj = base_obj->shadow_parent().get();
    }
    switch (base_obj->backing()) {
      case VmObject::Backing::kDevice:
        frame = base_obj->device_base() + (index << hw::kPageShift);
        break;
      case VmObject::Backing::kPager: {
        auto new_frame = machine_->mem().AllocFrame();
        if (!new_frame.ok()) {
          return base::Status::kResourceShortage;
        }
        const base::Status st = PagerFill(task, base_obj, index, *new_frame);
        if (st != base::Status::kOk) {
          machine_->mem().FreeFrame(*new_frame);
          return st;
        }
        base_obj->InstallPage(index, *new_frame);
        frame = *new_frame;
        if (base_obj != object) {
          map_prot = Prot::kRead;  // COW away from the pager-backed base
        } else if (base_obj->dirty_tracking()) {
          if (write) {
            base_obj->MarkDirty(index);
          } else {
            map_prot = Prot::kRead;  // clean until the first store faults
          }
        }
        break;
      }
      case VmObject::Backing::kAnonymous: {
        cpu().Execute(ZeroFillRegion());
        auto new_frame = machine_->mem().AllocFrame();
        if (!new_frame.ok()) {
          return base::Status::kResourceShortage;
        }
        machine_->mem().Fill(*new_frame, 0, hw::kPageSize);
        ChargeCopy(*new_frame, *new_frame, hw::kPageSize / 2);  // zeroing traffic
        // Private zero-fill pages land in the faulting object itself so COW
        // chains stay consistent.
        object->InstallPage(index, *new_frame);
        ++task.zero_fills;
        frame = *new_frame;
        break;
      }
    }
  }

  cpu().Execute(PmapEnterRegion());
  const uint64_t vpn = hw::PageIndex(vaddr);
  cpu().AccessData(task.pmap().PteAddr(vpn), 4, /*write=*/true);
  task.pmap().Enter(vpn, frame, map_prot);
  // Installing a translation is a release edge: a later access through this
  // frame (the acquire half, in ResolveForAccess) is ordered after the
  // fault's resolution traffic, just as real page-table install barriers
  // order an MMU walk after the kernel's page copy.
  if (sync_observer_ != nullptr && scheduler_.current() != nullptr) {
    sync_observer_->OnChannelSend(kPageInstallChannel | hw::PageIndex(frame),
                                  scheduler_.current());
  }
  *out_pa = frame + (vaddr & hw::kPageMask);
  return base::Status::kOk;
}

base::Result<hw::PhysAddr> Kernel::ResolveForAccess(Task& task, hw::VirtAddr vaddr, bool write) {
  // Acquire half of the page-install edge (see FaultIn): any resolved user
  // access is ordered after the fault that installed the frame it reaches.
  auto acquire_install = [&](hw::PhysAddr pa) {
    if (sync_observer_ != nullptr && scheduler_.current() != nullptr) {
      sync_observer_->OnChannelRecv(kPageInstallChannel | hw::PageIndex(pa),
                                    scheduler_.current());
    }
  };
  const uint64_t vpn = hw::PageIndex(vaddr);
  const Pmap::Mapping* m = task.pmap().Lookup(vpn);
  if (m != nullptr && (!write || ProtIncludes(m->prot, Prot::kWrite))) {
    const hw::PhysAddr pa = m->frame + (vaddr & hw::kPageMask);
    acquire_install(pa);
    return pa;
  }
  VmMapEntry* entry = task.vm_map().Lookup(vaddr);
  if (entry == nullptr) {
    return base::Status::kInvalidAddress;
  }
  hw::PhysAddr pa = 0;
  const base::Status st = FaultIn(task, entry, vaddr, write, &pa);
  if (st != base::Status::kOk) {
    return st;
  }
  acquire_install(pa);
  return pa;
}

// --- User memory access -----------------------------------------------------------------------

void Kernel::AccessUser(Task& task, hw::VirtAddr vaddr, hw::PhysAddr pa, uint32_t size,
                        bool write) {
  cpu().AccessTranslated(vaddr, pa, task.pmap().PteAddr(hw::PageIndex(vaddr)), size, write);
}

namespace {
// Iterates [addr, addr+len) in chunks that never cross a page boundary.
template <typename Fn>
base::Status ForEachPageChunk(hw::VirtAddr addr, uint64_t len, Fn&& fn) {
  uint64_t done = 0;
  while (done < len) {
    const hw::VirtAddr va = addr + done;
    const uint64_t in_page = hw::kPageSize - (va & hw::kPageMask);
    const uint64_t chunk = len - done < in_page ? len - done : in_page;
    const base::Status st = fn(va, done, chunk);
    if (st != base::Status::kOk) {
      return st;
    }
    done += chunk;
  }
  return base::Status::kOk;
}
}  // namespace

base::Status Kernel::CopyOut(Task& task, hw::VirtAddr dst, const void* src, uint64_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(src);
  return ForEachPageChunk(dst, len, [&](hw::VirtAddr va, uint64_t off, uint64_t chunk) {
    auto pa = ResolveForAccess(task, va, /*write=*/true);
    if (!pa.ok()) {
      return pa.status();
    }
    machine_->mem().Write(*pa, bytes + off, chunk);
    cpu().ExecuteInstructions(UserAccessRegion(),
                              Costs::kCopyLoopOverhead / 2 + chunk / Costs::kCopyBytesPerInstr);
    AccessUser(task, va, *pa, static_cast<uint32_t>(chunk), /*write=*/true);
    return base::Status::kOk;
  });
}

base::Status Kernel::CopyIn(Task& task, hw::VirtAddr src, void* dst, uint64_t len) {
  uint8_t* bytes = static_cast<uint8_t*>(dst);
  return ForEachPageChunk(src, len, [&](hw::VirtAddr va, uint64_t off, uint64_t chunk) {
    auto pa = ResolveForAccess(task, va, /*write=*/false);
    if (!pa.ok()) {
      return pa.status();
    }
    machine_->mem().Read(*pa, bytes + off, chunk);
    cpu().ExecuteInstructions(UserAccessRegion(),
                              Costs::kCopyLoopOverhead / 2 + chunk / Costs::kCopyBytesPerInstr);
    AccessUser(task, va, *pa, static_cast<uint32_t>(chunk), /*write=*/false);
    return base::Status::kOk;
  });
}

base::Status Kernel::UserFill(Task& task, hw::VirtAddr dst, uint8_t byte, uint64_t len) {
  return ForEachPageChunk(dst, len, [&](hw::VirtAddr va, uint64_t off, uint64_t chunk) {
    auto pa = ResolveForAccess(task, va, /*write=*/true);
    if (!pa.ok()) {
      return pa.status();
    }
    machine_->mem().Fill(*pa, byte, chunk);
    cpu().ExecuteInstructions(UserAccessRegion(), chunk / Costs::kCopyBytesPerInstr);
    AccessUser(task, va, *pa, static_cast<uint32_t>(chunk), /*write=*/true);
    return base::Status::kOk;
  });
}

base::Status Kernel::UserTouch(Task& task, hw::VirtAddr addr, uint64_t len, bool write) {
  return ForEachPageChunk(addr, len, [&](hw::VirtAddr va, uint64_t off, uint64_t chunk) {
    auto pa = ResolveForAccess(task, va, write);
    if (!pa.ok()) {
      return pa.status();
    }
    cpu().ExecuteInstructions(UserAccessRegion(), chunk / Costs::kCopyBytesPerInstr);
    AccessUser(task, va, *pa, static_cast<uint32_t>(chunk), write);
    return base::Status::kOk;
  });
}

// --- External memory objects --------------------------------------------------------------------

uint64_t Kernel::RegisterPagedObject(std::shared_ptr<VmObject> object, Port* pager_port,
                                     uint64_t pager_offset) {
  const uint64_t id = next_object_id_++;
  object->SetPager(pager_port, pager_offset, id);
  paged_objects_.emplace(id, std::move(object));
  return id;
}

std::shared_ptr<VmObject> Kernel::LookupPagedObject(uint64_t object_id) {
  auto it = paged_objects_.find(object_id);
  return it == paged_objects_.end() ? nullptr : it->second;
}

// --- Managed file-backed objects (mmap support) -------------------------------------------------

namespace {
// True if `entry`'s object is `object` or shadows it (directly or deeper).
bool EntryReaches(const VmMapEntry& entry, const VmObject* object) {
  const VmObject* obj = entry.object.get();
  while (obj != nullptr) {
    if (obj == object) {
      return true;
    }
    obj = obj->shadow_parent().get();
  }
  return false;
}
}  // namespace

base::Status Kernel::PagerWriteback(Task& task, VmObject* object, uint64_t page_index) {
  Port* pager = object->pager_port();
  if (pager == nullptr || pager->dead()) {
    return base::Status::kPortDead;
  }
  auto frame = object->GetPage(page_index);
  if (!frame.ok()) {
    return base::Status::kNotFound;
  }
  cpu().Execute(PagerWritebackRegion());
  cpu().AccessData(task.sim_addr(), 32, /*write=*/false);
  PagerRequest req;
  req.op = PagerOp::kDataWrite;
  req.object_id = object->pager_object_id();
  req.page_index = page_index + (object->pager_offset() >> hw::kPageShift);
  PagerReply reply{};
  std::vector<uint8_t> page(hw::kPageSize);
  machine_->mem().Read(*frame, page.data(), hw::kPageSize);
  ChargeCopy(*frame, heap_->base(), hw::kPageSize);
  RpcRef ref;
  ref.send_data = page.data();
  ref.send_len = hw::kPageSize;
  uint32_t reply_len = 0;
  const base::Status st = RpcCallOnPort(pager, &req, sizeof(req), &reply, sizeof(reply),
                                        &reply_len, &ref, nullptr, 0, nullptr, kForever);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  tracer_->Emit(trace::EventType::kPagerWriteback, object->pager_object_id(), page_index);
  return base::Status::kOk;
}

uint64_t Kernel::VmObjectInvalidate(VmObject* object, uint64_t first_page, uint64_t count,
                                    bool clean_only) {
  const uint64_t limit =
      first_page + count < first_page ? ~0ull : first_page + count;  // clamp overflow
  uint64_t dropped = 0;
  for (uint64_t index : object->ResidentPagesSorted()) {
    if (index < first_page || index >= limit) {
      continue;
    }
    if (clean_only && object->IsDirty(index)) {
      continue;
    }
    cpu().Execute(ObjectInvalidateRegion());
    auto frame = object->GetPage(index);
    object->RemovePage(index);
    if (frame.ok()) {
      machine_->mem().FreeFrame(*frame);
    }
    ++dropped;
  }
  // Every mapping that can reach the object loses its translations for the
  // whole entry, so surviving (dirty/shadow) pages refault resident and
  // dropped ones refault through the pager.
  bool flushed_any = false;
  for (const auto& task : tasks_) {
    for (auto& [start, entry] : task->vm_map().entries()) {
      if (!EntryReaches(entry, object)) {
        continue;
      }
      task->pmap().RemoveRange(hw::PageIndex(entry.start), entry.size >> hw::kPageShift);
      flushed_any = true;
    }
  }
  if (flushed_any) {
    cpu().FlushTlb();
  }
  tracer_->Emit(trace::EventType::kVmObjectInvalidate, object->pager_object_id(), dropped);
  return dropped;
}

void Kernel::VmObjectMarkClean(VmObject* object, uint64_t first_page, uint64_t count) {
  for (uint64_t index : object->DirtyPages(first_page, count)) {
    object->ClearDirty(index);
  }
  // Write-protect live translations of direct (shared) mappings so the next
  // store faults and re-marks its page dirty. Shadow (private) mappings never
  // put dirty pages in the managed object, so they are unaffected.
  bool flushed_any = false;
  for (const auto& task : tasks_) {
    for (auto& [start, entry] : task->vm_map().entries()) {
      if (entry.object.get() != object) {
        continue;
      }
      task->pmap().ProtectRange(hw::PageIndex(entry.start), entry.size >> hw::kPageShift,
                                Prot::kRead);
      flushed_any = true;
    }
  }
  if (flushed_any) {
    cpu().FlushTlb();
  }
}

base::Status Kernel::AdoptPagerBacking(std::shared_ptr<VmObject> object,
                                       uint64_t fresh_object_id) {
  auto it = paged_objects_.find(fresh_object_id);
  if (it == paged_objects_.end()) {
    return base::Status::kNotFound;
  }
  VmObject* fresh = it->second.get();
  if (fresh == object.get()) {
    return base::Status::kOk;  // already adopted
  }
  const uint64_t old_id = object->pager_object_id();
  object->SetPager(fresh->pager_port(), fresh->pager_offset(), fresh_object_id);
  object->set_pager_initialized(fresh->pager_initialized());
  it->second = std::move(object);
  if (old_id != fresh_object_id) {
    paged_objects_.erase(old_id);  // the dead server's registration
  }
  return base::Status::kOk;
}

base::Status Kernel::VmMsync(Task& task, hw::VirtAddr addr, uint64_t len) {
  if (len == 0) {
    return base::Status::kOk;
  }
  VmMapEntry* entry = task.vm_map().Lookup(addr);
  if (entry == nullptr || addr + len > entry->end()) {
    return base::Status::kInvalidAddress;
  }
  VmObject* object = entry->object.get();
  if (object->backing() != VmObject::Backing::kPager || !object->dirty_tracking()) {
    // Anonymous/private mappings have nothing to push to a pager.
    return base::Status::kOk;
  }
  const uint64_t first = entry->PageIndexOf(addr);
  const uint64_t pages = entry->PageIndexOf(addr + len - 1) - first + 1;
  for (uint64_t index : object->DirtyPages(first, pages)) {
    const base::Status st = PagerWriteback(task, object, index);
    if (st != base::Status::kOk) {
      return st;
    }
  }
  VmObjectMarkClean(object, first, pages);
  return base::Status::kOk;
}

base::Status Kernel::ReleasePagedObject(uint64_t object_id) {
  auto it = paged_objects_.find(object_id);
  if (it == paged_objects_.end()) {
    return base::Status::kNotFound;
  }
  std::shared_ptr<VmObject> object = it->second;
  Port* pager = object->pager_port();
  if (object->dirty_tracking() && object->pager_initialized() && pager != nullptr &&
      !pager->dead() && scheduler_.current() != nullptr) {
    PagerRequest req;
    req.op = PagerOp::kObjectTerminate;
    req.object_id = object_id;
    PagerReply reply{};
    uint32_t reply_len = 0;
    // Best effort: the pager may already be gone.
    (void)RpcCallOnPort(pager, &req, sizeof(req), &reply, sizeof(reply), &reply_len, nullptr,
                        nullptr, 0, nullptr, kForever);
  }
  // Unwritten dirty pages are discarded, as with munmap without msync.
  VmObjectInvalidate(object.get(), 0, hw::PageRound(object->size()) >> hw::kPageShift,
                     /*clean_only=*/false);
  object->set_pager_initialized(false);
  paged_objects_.erase(object_id);
  return base::Status::kOk;
}

}  // namespace mk
