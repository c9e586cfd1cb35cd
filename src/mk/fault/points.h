// Central registry of fault-injection points and modes.
//
// Like the trace-event registry (src/mk/trace/events.h), every named fault
// point and fault mode is declared here, once — tools/lint.py rejects
// FaultPoint/FaultMode references that are not members of these enums, so
// fault campaigns run against an auditable, stable set of names and a seed
// recorded against one build replays against another.
#ifndef SRC_MK_FAULT_POINTS_H_
#define SRC_MK_FAULT_POINTS_H_

#include <cstdint>

namespace mk {
namespace fault {

// Where a fault can fire. Each point documents which modes make sense there;
// Injector::Fire returns the armed mode and the call site implements it.
enum class FaultPoint : uint8_t {
  // ServerLoop::EnterHandler, called first in a server's dispatch before any
  // handler state changes. Only the servers a campaign survives losing
  // call it: the file server, and the echo loops in tests and examples.
  // Supports every mode: kCrashTask (terminate the serving task),
  // kDropReply (swallow the request; the client needs a deadline),
  // kKillPort (destroy the service port), kTransientError (reply kBusy),
  // kStallTask (park the serving thread forever — a wedged-but-alive
  // server only a watchdog can recover), kDelayReply (sleep a seeded
  // simulated delay before handling — an overloaded-but-correct server).
  kServerHandlerEntry = 0,
  // Kernel::RpcReply / RpcReplyAndReceive, after the in-flight waiter is
  // found. Supports kCrashTask, kDropReply (waiter erased, client never
  // woken), kKillPort (request port destroyed), kTransientError (client
  // completes with kBusy).
  kRpcReply,
  // Kernel::RpcCallOnPort, before the request bytes are handed to a server.
  // Supports kTransientError only (the call fails with kBusy before any
  // state transfer, so the server stays cleanly parked).
  kMessageCopy,
  kCount,
};

const char* FaultPointName(FaultPoint point);

// What happens when a fault fires.
enum class FaultMode : uint8_t {
  kNone = 0,        // nothing fired (injector disabled / point not armed)
  kCrashTask,       // terminate the serving task (death notification path)
  kDropReply,       // swallow the reply; the caller sees only its deadline
  kKillPort,        // mark the request port dead
  kTransientError,  // fail the operation with kBusy, leave state intact
  kStallTask,       // park the serving thread forever (wedged, not dead)
  kDelayReply,      // delay the operation by a seeded simulated-time amount
  kCount,
};

const char* FaultModeName(FaultMode mode);

}  // namespace fault
}  // namespace mk

#endif  // SRC_MK_FAULT_POINTS_H_
