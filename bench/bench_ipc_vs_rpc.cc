// Reproduces the IPC-rework claim: "The result was a two to ten times
// improvement in message-passing performance with the improvement's
// magnitude depending primarily on the number of bytes transmitted."
//
// Sweep: round-trip request/reply of N payload bytes, legacy mach_msg
// (queued, reply port, kernel buffer double copy, OOL virtual copy for large
// payloads) versus the reworked RPC (synchronous handoff, single physical
// copy, by-reference bulk data).
#include "src/base/log.h"

#include <cstdio>
#include <string>
#include <vector>

#include "bench/lib/json_report.h"
#include "bench/lib/trace_export.h"
#include "src/hw/machine.h"
#include "src/mk/kernel.h"

namespace {

constexpr int kWarmup = 50;
constexpr int kOps = 300;
const uint32_t kSizes[] = {0, 32, 128, 512, 2048, 8192, 32768};
// Payloads above this go out-of-line (virtual copy) in the legacy system, as
// real MIG stubs did.
constexpr uint32_t kLegacyInlineLimit = 2048;

struct Pair {
  double rpc_cycles = 0;
  double ipc_cycles = 0;
};

Pair MeasureSize(uint32_t size, const std::string& trace_path) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  bench::ArmTrace(kernel, trace_path);
  mk::Task* server_task = kernel.CreateTask("server");
  mk::Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  Pair out;

  kernel.CreateThread(server_task, "server", [&, recv = *recv](mk::Env& env) {
    // Phase 1: RPC echo server.
    char buf[256];
    std::vector<uint8_t> bulk(64 * 1024);
    for (int i = 0; i < kWarmup + kOps; ++i) {
      mk::RpcRef ref;
      ref.recv_buf = bulk.data();
      ref.recv_cap = static_cast<uint32_t>(bulk.size());
      auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
      if (!req.ok()) {
        return;
      }
      env.RpcReply(req->token, nullptr, 0);
    }
    // Phase 2: legacy server — receive, touch OOL data, send reply message.
    for (int i = 0; i < kWarmup + kOps; ++i) {
      mk::MachMessage msg;
      if (kernel.MachMsgReceive(recv, &msg) != base::Status::kOk) {
        return;
      }
      // Consume the received OOL data (the virtual copy's per-page faults
      // and cold reads bite here, exactly where they bit real Mach users).
      for (const mk::OolDescriptor& ool : msg.ool) {
        static std::vector<uint8_t> sink;
        sink.resize(ool.size);
        (void)env.CopyIn(ool.address, sink.data(), ool.size);
        (void)kernel.VmDeallocate(env.task(), hw::PageTrunc(ool.address),
                                  hw::PageRound(ool.size));
      }
      mk::MachMessage reply;
      reply.dest = msg.reply_port;
      if (kernel.MachMsgSend(std::move(reply)) != base::Status::kOk) {
        return;
      }
    }
  });

  kernel.CreateThread(client_task, "client", [&, send = *send](mk::Env& env) {
    // --- Reworked RPC ---------------------------------------------------------
    std::vector<uint8_t> payload(size > 0 ? size : 1);
    char reply[64];
    auto do_rpc = [&] {
      mk::RpcRef ref;
      uint32_t inline_len = size;
      if (size > 256) {
        // Too large for the message body: passed by reference.
        ref.send_data = payload.data();
        ref.send_len = size;
        inline_len = 0;
      }
      (void)env.RpcCall(send, payload.data(), inline_len, reply, sizeof(reply), nullptr,
                        size > 256 ? &ref : nullptr);
    };
    for (int i = 0; i < kWarmup; ++i) {
      do_rpc();
    }
    uint64_t c0 = kernel.cpu().cycles();
    for (int i = 0; i < kOps; ++i) {
      do_rpc();
    }
    out.rpc_cycles = static_cast<double>(kernel.cpu().cycles() - c0) / kOps;

    // --- Legacy mach_msg ---------------------------------------------------------
    auto reply_port = env.PortAllocate();
    WPOS_CHECK(reply_port.ok());
    hw::VirtAddr ool_buf = 0;
    if (size > kLegacyInlineLimit) {
      auto addr = env.VmAllocate(hw::PageRound(size));
      WPOS_CHECK(addr.ok());
      ool_buf = *addr;
      WPOS_CHECK(env.Touch(ool_buf, size, true) == base::Status::kOk);
    }
    auto do_legacy = [&] {
      mk::MachMessage msg;
      msg.dest = send;
      msg.reply_port = *reply_port;
      if (size > kLegacyInlineLimit) {
        msg.ool.push_back({ool_buf, size, false});
      } else if (size > 0) {
        msg.inline_data.assign(payload.begin(), payload.begin() + size);
      }
      (void)kernel.MachMsgSend(std::move(msg));
      mk::MachMessage rep;
      (void)kernel.MachMsgReceive(*reply_port, &rep);
      if (size > kLegacyInlineLimit) {
        // The sender reuses its buffer for the next message, so every page
        // it rewrites takes a copy-on-write fault against the snapshot the
        // previous send created — the hidden cost of virtual copy.
        (void)kernel.UserFill(env.task(), ool_buf, static_cast<uint8_t>(size), size);
      }
    };
    for (int i = 0; i < kWarmup; ++i) {
      do_legacy();
    }
    c0 = kernel.cpu().cycles();
    for (int i = 0; i < kOps; ++i) {
      do_legacy();
    }
    out.ipc_cycles = static_cast<double>(kernel.cpu().cycles() - c0) / kOps;
    kernel.PortDestroy(*server_task, *recv);
  });
  kernel.Run();
  bench::ExportTrace(kernel, trace_path);
  return out;
}

void PrintSweep(bench::JsonReport* report, const std::string& trace_path) {
  std::printf("\n=== IPC rework: mach_msg vs RPC round trip (cycles/op) ===\n");
  std::printf("%10s %14s %14s %14s\n", "bytes", "mach_msg", "RPC", "improvement");
  bool first = true;
  for (uint32_t size : kSizes) {
    // `--trace` captures the first (zero-byte) sweep point's run.
    const Pair p = MeasureSize(size, first ? trace_path : std::string());
    first = false;
    std::printf("%10u %14.0f %14.0f %13.1fx\n", size, p.ipc_cycles, p.rpc_cycles,
                p.ipc_cycles / p.rpc_cycles);
    const std::string prefix = "bytes" + std::to_string(size);
    report->Add(prefix + ".machmsg_cycles", p.ipc_cycles);
    report->Add(prefix + ".rpc_cycles", p.rpc_cycles);
    // Paper: "a two to ten times improvement"; compare against the low bound.
    report->Add(prefix + ".improvement", p.ipc_cycles / p.rpc_cycles, 2.0);
  }
  std::printf("paper: \"a two to ten times improvement ... depending primarily on the\n"
              "number of bytes transmitted\"\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractJsonPath(&argc, argv);
  const std::string trace_path = bench::ExtractTracePath(&argc, argv);
  base::SetLogLevel(base::LogLevel::kError);  // parked servers at halt are expected
  bench::JsonReport report;
  PrintSweep(&report, trace_path);
  if (!json_path.empty()) {
    WPOS_CHECK(report.WriteFile(json_path)) << "cannot write " << json_path;
  }
  return 0;
}
