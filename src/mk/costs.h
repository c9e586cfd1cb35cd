// Central table of modelled path lengths (simulated instruction counts) for
// the instrumented microkernel, stub and server-loop code paths.
//
// These are the calibration knobs of the reproduction. The *absolute* counts
// are informed by the paper's Table 2 (a thread_self trap ran 465
// instructions end to end; a 32-byte RPC ran 1317) and by the path
// decompositions in Liedtke'93 for Mach-derived IPC. The *ratios* between
// trap and RPC, and the cache behaviour, then emerge from the CPU model —
// they are not set here.
#ifndef SRC_MK_COSTS_H_
#define SRC_MK_COSTS_H_

#include <cstdint>

namespace mk {

struct Costs {
  // --- Privilege switching ---------------------------------------------------
  // Fixed pipeline/microcode stall for entering and leaving kernel mode.
  static constexpr uint32_t kTrapStallCycles = 360;
  static constexpr uint32_t kTrapEntry = 95;    // save state, demux trap number
  static constexpr uint32_t kTrapExit = 55;     // restore state, return to user

  // Bus transactions inherent to a privilege switch (trap frame push, IDT and
  // TSS references on the Pentium) — visible in Table 2's bus-cycle column.
  static constexpr uint32_t kTrapEntryBus = 22;
  static constexpr uint32_t kTrapExitBus = 8;

  // --- Simple traps ----------------------------------------------------------
  static constexpr uint32_t kUserTrapStub = 45;     // user-level stub for a trap
  static constexpr uint32_t kThreadSelfBody = 130;  // lookup current thread, name
  static constexpr uint32_t kPortNameLookup = 140;  // hash the port name space

  // --- RPC (the IBM rework) --------------------------------------------------
  static constexpr uint32_t kRpcClientStub = 105;   // marshal args, trap
  static constexpr uint32_t kRpcServerStub = 120;   // demux id, unmarshal
  static constexpr uint32_t kRpcSendPath = 185;     // rights check, rendezvous
  static constexpr uint32_t kRpcReceivePath = 125;  // server-side receive path
  static constexpr uint32_t kRpcReplyPath = 135;    // reply + resume client
  static constexpr uint32_t kRpcServerLoop = 110;   // server demultiplex loop
  // Copy loop: modelled instructions per 8 copied bytes.
  static constexpr uint32_t kCopyBytesPerInstr = 8;
  static constexpr uint32_t kCopyLoopOverhead = 30;
  // By-reference bulk data above this size moves as whole pages (remap into
  // the receiver's window) instead of through the per-byte copy loop — the
  // paper's "large data passed by reference". Per-page costs are far below
  // the legacy vm_map_copyin/copyout pair because the rework carries no
  // shadow-object churn: the sender's pages are referenced and mapped
  // read-only into the receiver for the duration of the call.
  static constexpr uint32_t kRpcOolThresholdBytes = 2048;
  static constexpr uint32_t kRpcOolPreparePerPage = 220;  // reference + wire-down
  static constexpr uint32_t kRpcOolMapPerPage = 180;      // PTE setup in receiver

  // --- Legacy Mach 3.0 IPC (mach_msg) ----------------------------------------
  static constexpr uint32_t kMachMsgUserStub = 210;    // MIG stub, header setup
  static constexpr uint32_t kMachMsgSendPath = 480;    // option demux, queueing
  static constexpr uint32_t kMachMsgReceivePath = 420; // dequeue, copyout
  static constexpr uint32_t kMachMsgKernelBuffer = 90; // kmsg alloc/free
  static constexpr uint32_t kReplyPortManage = 150;    // send-once right churn
  static constexpr uint32_t kOolPreparePerPage = 1600;  // vm_map_copyin: entry
                                                       // clipping, shadow-object
                                                       // churn, wiring checks
  static constexpr uint32_t kOolReceivePerPage = 1200;  // vm_map_copyout per page

  // --- Scheduling ------------------------------------------------------------
  static constexpr uint32_t kSchedPickThread = 55;
  static constexpr uint32_t kSchedContextSwitch = 105;  // register state, stacks
  static constexpr uint32_t kSchedHandoff = 45;         // direct handoff path
  static constexpr uint32_t kPmapActivate = 80;         // address-space switch
  static constexpr uint32_t kContextSwitchStallCycles = 220;
  // Aggregate refill penalty after an address-space switch: the TLB is
  // flushed (no ASIDs on the Pentium/604) and the incoming context's working
  // translations and write buffers rebuild over the next few dozen accesses.
  // Charged once per pmap activation; the per-page TLB walks of subsequent
  // user accesses are modelled separately by the TLB model.
  static constexpr uint32_t kSpaceSwitchRefillCycles = 700;
  static constexpr uint32_t kSpaceSwitchRefillBus = 80;

  // --- VM --------------------------------------------------------------------
  static constexpr uint32_t kFaultEntry = 450;   // Mach vm_fault entry/lookup
  static constexpr uint32_t kFaultResolve = 850;     // object chain, pager checks
  static constexpr uint32_t kFaultZeroFill = 120;    // + copy loop for the page
  static constexpr uint32_t kFaultCowCopy = 150;     // + copy loop for the page
  static constexpr uint32_t kPmapEnter = 70;
  static constexpr uint32_t kVmAllocate = 240;
  static constexpr uint32_t kVmDeallocate = 200;
  static constexpr uint32_t kVmMapObject = 280;
  // Managed file-backed objects (mmap): pages the kernel requests from the
  // pager per kDataRequest when the faulting object tracks dirty pages —
  // sequential faults amortize one pager RPC over this many pages.
  static constexpr uint32_t kMmapReadaheadPages = 8;
  static constexpr uint32_t kPagerWritebackPage = 260;     // msync dirty-page RPC setup
  static constexpr uint32_t kVmObjectInvalidatePage = 90;  // drop resident page + PTEs

  // --- Synchronizers ----------------------------------------------------------
  static constexpr uint32_t kSemaphoreFast = 110;    // kernel semaphore, no block
  static constexpr uint32_t kSemaphoreBlock = 140;   // extra when blocking
  static constexpr uint32_t kMemSyncUserFast = 18;   // user-level atomic path
  static constexpr uint32_t kMemSyncKernelWait = 180;

  // --- Clocks and timers -------------------------------------------------------
  static constexpr uint32_t kClockGetTime = 70;
  static constexpr uint32_t kTimerArm = 130;

  // --- I/O support -------------------------------------------------------------
  static constexpr uint32_t kIoRegAccess = 40;       // kernel-mediated reg access
  static constexpr uint32_t kInterruptDeliver = 170; // vector to handler
  static constexpr uint32_t kInterruptReflect = 210; // reflect to user level
  static constexpr uint32_t kDmaSetup = 190;

  // --- Port management ----------------------------------------------------------
  static constexpr uint32_t kPortAllocate = 220;
  static constexpr uint32_t kPortRightTransfer = 160;
  static constexpr uint32_t kPortDeallocate = 180;

  // --- Task/thread management -----------------------------------------------
  static constexpr uint32_t kTaskCreate = 900;
  static constexpr uint32_t kThreadCreate = 600;
  static constexpr uint32_t kThreadTerminate = 400;
};

}  // namespace mk

#endif  // SRC_MK_COSTS_H_
