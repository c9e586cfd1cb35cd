// Reproduces the name-service claim: the X.500-style design "was
// sufficiently expensive that Release 2 of the IBM Microkernel added an
// alternative, much simplified name service for embedded configurations."
// Measures resolve/register/search on the full service and resolve/register
// on the lite service, per operation.
#include "src/base/log.h"

#include <cstdio>
#include <string>

#include "bench/lib/json_report.h"
#include "bench/lib/trace_export.h"
#include "src/hw/machine.h"
#include "src/mks/naming/lite_name_server.h"
#include "src/mks/naming/name_server.h"

namespace {

constexpr int kOps = 300;
constexpr int kNamespaceEntries = 48;

struct Numbers {
  double full_resolve = 0;
  double full_register = 0;
  double full_search = 0;
  double full_list = 0;
  double lite_resolve = 0;
  double lite_register = 0;
};

Numbers MeasureAll(const std::string& trace_path) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  bench::ArmTrace(kernel, trace_path);
  mk::Task* full_task = kernel.CreateTask("mks-naming");
  mks::NameServer full(kernel, full_task);
  mk::Task* lite_task = kernel.CreateTask("mks-naming-lite");
  mks::LiteNameServer lite(kernel, lite_task);
  mk::Task* client = kernel.CreateTask("client");
  const mk::PortName full_svc = full.GrantTo(*client);
  const mk::PortName lite_svc = lite.GrantTo(*client);
  Numbers out;

  kernel.CreateThread(client, "main", [&](mk::Env& env) {
    mks::NameClient nc(full_svc);
    mks::LiteNameClient lc(lite_svc);
    auto port = env.PortAllocate();
    WPOS_CHECK(port.ok());
    // Populate a realistic namespace on both services.
    mks::Attribute attr;
    std::strncpy(attr.key, "class", sizeof(attr.key) - 1);
    std::strncpy(attr.value, "service", sizeof(attr.value) - 1);
    for (int i = 0; i < kNamespaceEntries; ++i) {
      const std::string name = "/svc/group" + std::to_string(i % 6) + "/entry" +
                               std::to_string(i);
      WPOS_CHECK(nc.Register(env, name, *port, {attr}) == base::Status::kOk);
      WPOS_CHECK(lc.Register(env, name, *port) == base::Status::kOk);
    }
    auto measure = [&](auto&& op) {
      for (int i = 0; i < 20; ++i) {
        op(i);
      }
      const uint64_t c0 = kernel.cpu().cycles();
      for (int i = 0; i < kOps; ++i) {
        op(i);
      }
      return static_cast<double>(kernel.cpu().cycles() - c0) / kOps;
    };
    out.full_resolve = measure([&](int) { WPOS_CHECK(nc.Resolve(env, "/svc/group3/entry21").ok()); });
    out.lite_resolve = measure([&](int) { WPOS_CHECK(lc.Resolve(env, "/svc/group3/entry21").ok()); });
    int serial = 0;
    out.full_register = measure([&](int) {
      WPOS_CHECK(nc.Register(env, "/tmp/full" + std::to_string(serial++), *port) ==
                 base::Status::kOk);
    });
    serial = 0;
    out.lite_register = measure([&](int) {
      WPOS_CHECK(lc.Register(env, "/tmp/lite" + std::to_string(serial++), *port) ==
                 base::Status::kOk);
    });
    out.full_search = measure([&](int) { WPOS_CHECK(nc.Search(env, "class", "service").ok()); });
    out.full_list = measure([&](int) { WPOS_CHECK(nc.List(env, "/svc/group3").ok()); });
    full.Stop();
    lite.Stop();
  });
  kernel.Run();
  bench::ExportTrace(kernel, trace_path);
  return out;
}

void PrintNaming(const Numbers& n, bench::JsonReport* report) {
  report->Add("full.resolve_cycles", n.full_resolve);
  report->Add("full.register_cycles", n.full_register);
  report->Add("full.search_cycles", n.full_search);
  report->Add("full.list_cycles", n.full_list);
  report->Add("lite.resolve_cycles", n.lite_resolve);
  report->Add("lite.register_cycles", n.lite_register);
  report->Add("resolve.full_over_lite", n.full_resolve / n.lite_resolve);
  report->Add("register.full_over_lite", n.full_register / n.lite_register);
  std::printf("\n=== Name service: X.500-style vs Release-2 lite (cycles/op) ===\n");
  std::printf("%-14s %14s %14s %10s\n", "operation", "full (X.500)", "lite", "full/lite");
  std::printf("%-14s %14.0f %14.0f %10.2f\n", "resolve", n.full_resolve, n.lite_resolve,
              n.full_resolve / n.lite_resolve);
  std::printf("%-14s %14.0f %14.0f %10.2f\n", "register", n.full_register, n.lite_register,
              n.full_register / n.lite_register);
  std::printf("%-14s %14.0f %14s\n", "attr search", n.full_search, "(n/a)");
  std::printf("%-14s %14.0f %14s\n", "list", n.full_list, "(n/a)");
  std::printf("paper: attributes, complex formats, search and notifications made the full\n"
              "service \"sufficiently expensive\" to justify the lite service.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractJsonPath(&argc, argv);
  const std::string trace_path = bench::ExtractTracePath(&argc, argv);
  base::SetLogLevel(base::LogLevel::kError);  // parked servers at halt are expected
  bench::JsonReport report;
  PrintNaming(MeasureAll(trace_path), &report);
  if (!json_path.empty()) {
    WPOS_CHECK(report.WriteFile(json_path)) << "cannot write " << json_path;
  }
  return 0;
}
