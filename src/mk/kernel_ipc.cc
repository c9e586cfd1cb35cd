// Legacy Mach 3.0 IPC: mach_msg with queued asynchronous delivery, reply
// ports, kernel message buffers (two-copy), and virtual (COW) copy of
// out-of-line data. Retained as the baseline against which the paper's RPC
// rework reports its 2-10x improvement.
#include <cstring>

#include "src/base/log.h"
#include "src/mk/kernel.h"
#include "src/mk/vm_object.h"

namespace mk {

namespace {
const hw::CodeRegion& UserStubRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("ustub.mach_msg", Costs::kMachMsgUserStub);
  return r;
}
const hw::CodeRegion& SendPathRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.ipc.msg_send", Costs::kMachMsgSendPath);
  return r;
}
const hw::CodeRegion& ReceivePathRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.ipc.msg_receive", Costs::kMachMsgReceivePath);
  return r;
}
const hw::CodeRegion& KmsgRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.ipc.kmsg", Costs::kMachMsgKernelBuffer);
  return r;
}
const hw::CodeRegion& ReplyPortRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.ipc.reply_port", Costs::kReplyPortManage);
  return r;
}
const hw::CodeRegion& OolPrepareRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.ipc.ool_prepare", Costs::kOolPreparePerPage);
  return r;
}
const hw::CodeRegion& OolReceiveRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.ipc.ool_receive", Costs::kOolReceivePerPage);
  return r;
}
const hw::CodeRegion& TrapEntry() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.trap.entry", Costs::kTrapEntry);
  return r;
}
}  // namespace

base::Status Kernel::MachMsgSend(MachMessage&& msg, uint64_t timeout_ns) {
  Thread* sender = scheduler_.current();
  WPOS_DCHECK(sender != nullptr) << "MachMsgSend outside thread context";
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(sender, "MachMsgSend", msg.msg_id);
  }
  Task& task = *sender->task();
  trace::ScopedSpan span(*tracer_, trace::SpanKind::kIpcSend, trace::EventType::kIpcSend,
                         trace::EventType::kIpcSendDone, msg.msg_id);
  ++tracer_->metrics().Counter("mk.ipc.sends");
  cpu().Execute(UserStubRegion());
  EnterKernel(TrapEntry());
  cpu().Execute(SendPathRegion());
  cpu().Execute(KmsgRegion());
  cpu().AccessData(task.port_space().sim_addr(), 32, /*write=*/false);

  auto dest = task.port_space().LookupSendable(msg.dest);
  if (!dest.ok()) {
    LeaveKernel();
    return dest.status();
  }
  Port* port = *dest;
  // The kernel message buffer for copy #1. Its size is the sender's choice,
  // so a message the heap cannot hold is refused before it is counted or
  // queued.
  const base::Result<hw::PhysAddr> kernel_buffer =
      heap_->TryAllocate(msg.inline_data.size() + 64);
  if (!kernel_buffer.ok()) {
    LeaveKernel();
    return kernel_buffer.status();
  }
  ++mach_msgs_;
  ++port->send_count;
  cpu().AccessData(port->sim_addr(), 64, /*write=*/true);

  auto qm = std::make_unique<QueuedMessage>();
  qm->msg_id = msg.msg_id;
  qm->send_cycle = cpu().cycles();
  // Copy #1: user data into the kernel message buffer.
  qm->kernel_buffer = *kernel_buffer;
  qm->inline_data = std::move(msg.inline_data);
  if (!qm->inline_data.empty()) {
    const uint64_t span = qm->inline_data.size() < Thread::kMsgWindowSize ? qm->inline_data.size()
                                                                          : Thread::kMsgWindowSize;
    ChargeCopy(sender->msg_window(), qm->kernel_buffer, span);
  }
  // Reply port: the per-RPC send-once right churn of the old system.
  if (msg.reply_port != kNullPort) {
    cpu().Execute(ReplyPortRegion());
    auto reply = task.port_space().Lookup(msg.reply_port);
    if (!reply.ok()) {
      LeaveKernel();
      return reply.status();
    }
    qm->reply = {.port = (*reply)->port, .disposition = RightType::kSendOnce};
  }
  for (const RightDescriptor& rd : msg.rights) {
    auto right = task.port_space().LookupSendable(rd.name);
    if (!right.ok()) {
      LeaveKernel();
      return right.status();
    }
    qm->rights.push_back({.port = *right, .disposition = rd.disposition});
  }
  // OOL regions: virtual copy — COW snapshot of the sender pages.
  for (const OolDescriptor& ool : msg.ool) {
    const uint64_t pages = hw::PageRound(ool.size) >> hw::kPageShift;
    for (uint64_t i = 0; i < pages; ++i) {
      cpu().Execute(OolPrepareRegion());
    }
    auto snap = SnapshotForOol(task, ool.address, ool.size);
    if (!snap.ok()) {
      LeaveKernel();
      return snap.status();
    }
    qm->ool.push_back({.object = *snap, .size = ool.size});
    if (ool.deallocate_sender) {
      (void)VmDeallocate(task, hw::PageTrunc(ool.address), hw::PageRound(ool.size));
    }
  }

  // Queue, blocking while full (the queuing/blocking behaviour RPC removed).
  while (port->queue.size() >= port->queue_limit) {
    if (port->dead()) {
      LeaveKernel();
      return base::Status::kPortDead;
    }
    StartTimedWake(sender, timeout_ns);
    const base::Status st = scheduler_.Block(Thread::State::kBlocked, &port->blocked_senders);
    if (st != base::Status::kOk) {
      LeaveKernel();
      return st;
    }
  }
  if (port->dead()) {
    LeaveKernel();
    return base::Status::kPortDead;
  }
  port->queue.push_back(std::move(qm));
  tracer_->metrics().GaugeMax("mk.ipc.queue_depth_hwm", port->queue.size());
  if (sync_observer_ != nullptr) {
    // Queued channel edge: the sender's clock joins the port; the eventual
    // receiver absorbs it at dequeue even if it was never blocked here.
    sync_observer_->OnChannelSend(port->id(), sender);
  }
  WakeOneReceiver(port);
  LeaveKernel();
  return base::Status::kOk;
}

base::Status Kernel::MachMsgReceive(PortName name, MachMessage* out, uint64_t timeout_ns) {
  Thread* receiver = scheduler_.current();
  WPOS_DCHECK(receiver != nullptr) << "MachMsgReceive outside thread context";
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(receiver, "MachMsgReceive", name);
  }
  Task& task = *receiver->task();
  trace::ScopedSpan span(*tracer_, trace::SpanKind::kIpcReceive, trace::EventType::kIpcReceive,
                         trace::EventType::kIpcReceiveDone);
  ++tracer_->metrics().Counter("mk.ipc.receives");
  cpu().Execute(UserStubRegion());
  EnterKernel(TrapEntry());
  cpu().Execute(ReceivePathRegion());
  cpu().AccessData(task.port_space().sim_addr(), 32, /*write=*/false);

  auto port_r = task.port_space().LookupReceive(name);
  if (!port_r.ok()) {
    LeaveKernel();
    return port_r.status();
  }
  Port* port = *port_r;
  while (port->queue.empty()) {
    if (port->dead()) {
      LeaveKernel();
      return base::Status::kPortDead;
    }
    StartTimedWake(receiver, timeout_ns);
    const base::Status st = scheduler_.Block(Thread::State::kBlocked, &port->blocked_receivers);
    if (st != base::Status::kOk) {
      LeaveKernel();
      return st;
    }
  }
  std::unique_ptr<QueuedMessage> qm = std::move(port->queue.front());
  port->queue.pop_front();
  if (sync_observer_ != nullptr) {
    sync_observer_->OnChannelRecv(port->id(), receiver);
  }
  span.set_end_payload(qm->msg_id);
  cpu().Execute(KmsgRegion());
  cpu().AccessData(port->sim_addr(), 64, /*write=*/true);

  out->msg_id = qm->msg_id;
  out->dest = name;
  // Copy #2: kernel buffer out to the receiver.
  out->inline_data = std::move(qm->inline_data);
  if (!out->inline_data.empty()) {
    const uint64_t span = out->inline_data.size() < Thread::kMsgWindowSize
                              ? out->inline_data.size()
                              : Thread::kMsgWindowSize;
    ChargeCopy(qm->kernel_buffer, receiver->msg_window(), span);
  }
  out->reply_port = kNullPort;
  if (qm->reply.port != nullptr) {
    cpu().Execute(ReplyPortRegion());
    out->reply_port = task.port_space().Insert(qm->reply.port, qm->reply.disposition);
  }
  out->rights.clear();
  for (const QueuedMessage::ResolvedRight& rr : qm->rights) {
    const PortName n = task.port_space().Insert(rr.port, rr.disposition);
    if (rr.disposition == RightType::kReceive) {
      rr.port->set_receiver(&task);
    }
    out->rights.push_back({.name = n, .disposition = rr.disposition});
  }
  out->ool.clear();
  for (QueuedMessage::OolRegion& region : qm->ool) {
    const uint64_t pages = hw::PageRound(region.size) >> hw::kPageShift;
    for (uint64_t i = 0; i < pages; ++i) {
      cpu().Execute(OolReceiveRegion());
    }
    auto addr = VmMapObject(task, region.object, 0, hw::PageRound(region.size), Prot::kReadWrite,
                            /*anywhere=*/true);
    if (!addr.ok()) {
      LeaveKernel();
      return addr.status();
    }
    out->ool.push_back({.address = *addr, .size = region.size, .deallocate_sender = false});
  }
  if (Thread* blocked = port->blocked_senders.DequeueFront()) {
    blocked->waiting_on = nullptr;
    scheduler_.Wake(blocked, base::Status::kOk);
  }
  LeaveKernel();
  return base::Status::kOk;
}

}  // namespace mk
