// Microkernel Services tour: the X.500-style name service (attributes,
// search, notifications) alongside the Release-2 lite service, plus the
// default pager backing a memory object on disk, plus the loader resolving
// an address-coerced shared library into two address spaces.
//
//   $ ./naming_and_paging
#include <cstdio>

#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mks/loader/loader.h"
#include "src/mks/naming/lite_name_server.h"
#include "src/mks/naming/name_server.h"
#include "src/mks/pager/default_pager.h"

int main() {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  auto* disk = static_cast<hw::Disk*>(machine.AddDevice(std::make_unique<hw::Disk>("paging", 3)));

  mk::Task* mks_task = kernel.CreateTask("mks");
  mks::NameServer names(kernel, mks_task);
  mks::LiteNameServer lite(kernel, kernel.CreateTask("mks-lite"));
  mks::DefaultPager pager(kernel, kernel.CreateTask("default-pager"),
                          std::make_unique<mks::BackdoorBlockStore>(disk));

  // A pager-backed object with pre-existing backing-store contents.
  auto object = pager.CreateBackedObject(4 * hw::kPageSize);
  std::vector<uint8_t> page(hw::kPageSize, 0x42);
  pager.Preload(object->pager_object_id(), 1, page.data());

  mk::Task* app = kernel.CreateTask("app");
  auto mapped = kernel.VmMapObject(*app, object, 0, 4 * hw::kPageSize, mk::Prot::kReadWrite,
                                   /*anywhere=*/true);
  const mk::PortName name_service = names.GrantTo(*app);
  const mk::PortName lite_service = lite.GrantTo(*app);

  // The loader: an address-coerced shared library lands at the same address
  // in every task (the OS/2 shared-memory assumption).
  mks::Loader loader(kernel);
  mks::LoadModule lib;
  lib.name = "libpmwin.so";
  lib.shared_library = true;
  lib.coerced = true;
  lib.text_size = 8192;
  lib.data_size = 4096;
  lib.exports.push_back({"WinCreateWindow", 0x40});
  loader.RegisterModule(lib);
  mks::LoadModule prog;
  prog.name = "app.exe";
  prog.text_size = 4096;
  prog.needed.push_back("libpmwin.so");
  prog.imports.push_back({"libpmwin.so", "WinCreateWindow"});
  loader.RegisterModule(prog);
  mk::Task* second = kernel.CreateTask("app2");
  auto load1 = loader.LoadProgram(*app, "app.exe");
  auto load2 = loader.LoadProgram(*second, "app.exe");
  std::printf("loader: WinCreateWindow at %#llx in app, %#llx in app2 (coerced => equal)\n",
              static_cast<unsigned long long>(load1->resolved.at("WinCreateWindow").address),
              static_cast<unsigned long long>(load2->resolved.at("WinCreateWindow").address));

  kernel.CreateThread(app, "main", [&](mk::Env& env) {
    mks::NameClient nc(name_service);
    mks::LiteNameClient lc(lite_service);
    auto my_port = env.PortAllocate();

    // Register with attributes, then find by attribute search.
    mks::Attribute a;
    std::strncpy(a.key, "class", sizeof(a.key) - 1);
    std::strncpy(a.value, "printer", sizeof(a.value) - 1);
    nc.Register(env, "/dev/lpt0", *my_port, {a});
    nc.Register(env, "/dev/disk0", *my_port);
    auto printers = nc.Search(env, "class", "printer");
    std::printf("name service: search(class=printer) -> %zu match (%s)\n", printers->size(),
                (*printers)[0].c_str());

    // Watch the namespace, then trigger a change.
    auto notify = env.PortAllocate();
    nc.Watch(env, "/svc", *notify);
    nc.Register(env, "/svc/spooler", *my_port);
    mk::MachMessage event;
    env.kernel().MachMsgReceive(*notify, &event);
    mks::NameEvent ev;
    std::memcpy(&ev, event.inline_data.data(), sizeof(ev));
    std::printf("name service: watcher notified of '%s'\n", ev.name);

    // Lite service: same resolve, flat namespace, far cheaper.
    lc.Register(env, "/svc/spooler", *my_port);
    const uint64_t c0 = kernel.cpu().cycles();
    nc.Resolve(env, "/svc/spooler");
    const uint64_t full_cycles = kernel.cpu().cycles() - c0;
    const uint64_t c1 = kernel.cpu().cycles();
    lc.Resolve(env, "/svc/spooler");
    const uint64_t lite_cycles = kernel.cpu().cycles() - c1;
    std::printf("resolve cycles: full=%llu lite=%llu (the Release-2 motivation)\n",
                static_cast<unsigned long long>(full_cycles),
                static_cast<unsigned long long>(lite_cycles));

    // Touch the pager-backed object: page 1 arrives from the default pager.
    uint8_t byte = 0;
    env.CopyIn(*mapped + hw::kPageSize, &byte, 1);
    std::printf("default pager: page 1 faulted in with contents 0x%02x (%llu page-ins)\n", byte,
                static_cast<unsigned long long>(pager.pageins_served()));

    names.Stop();
    lite.Stop();
    pager.Stop();
  });

  kernel.Run();
  return 0;
}
