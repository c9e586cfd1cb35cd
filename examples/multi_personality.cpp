// Multiple operating system personalities running concurrently over the same
// personality-neutral servers — the Workplace OS headline feature (Figure 1
// of the paper).
//
// An OS/2 process, a UNIX process and a DOS box all share one file server
// (HPFS under "/", FAT under "/fat") and see each other's files through the
// single rooted tree, each through its own semantics:
//   - the OS/2 process opens names case-insensitively and uses EAs;
//   - the UNIX process uses byte-stream fds with implicit offsets;
//   - the DOS program reaches the file server via MVM's virtual device
//     drivers from inside the x86 interpreter.
//
//   $ ./multi_personality
#include <cstdio>

#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mks/pager/default_pager.h"
#include "src/pers/mvm/mvm.h"
#include "src/pers/os2/os2.h"
#include "src/pers/unixp/unix.h"
#include "src/svc/fs/file_server.h"

int main() {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 64 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  auto* disk = static_cast<hw::Disk*>(machine.AddDevice(
      std::make_unique<hw::Disk>("disk0", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));

  // Personality-neutral: one file server, two physical file systems.
  mks::BackdoorBlockStore store(disk, 200'000);
  // FAT lives on its own disk to keep the example compact.
  auto* fat_disk = static_cast<hw::Disk*>(machine.AddDevice(std::make_unique<hw::Disk>("d2", 4)));
  mks::BackdoorBlockStore fat_store(fat_disk, 200'000);
  svc::FileServer fs(kernel, kernel.CreateTask("file-server"));
  fs.AddVolume("/", &store, svc::PfsKind::kHpfs, 49152);
  fs.AddVolume("/fat", &fat_store, svc::PfsKind::kFat, 8192, 256);

  // Personalities.
  mk::Task* os2_task = kernel.CreateTask("os2-server");
  pers::Os2Server os2_server(kernel, os2_task);
  pers::Os2Process os2(kernel, os2_server, fs, "works");
  pers::UnixPersonality unix_pers(kernel, fs);
  pers::DosBox dos(kernel, fs, "game");

  // mkfs, then run the three personalities in dependency order via a simple
  // shared step counter.
  fs.StartMkfs();
  int step = 1;

  // 1. The OS/2 application writes a document with an extended attribute.
  kernel.CreateThread(os2.task(), "os2-app", [&](mk::Env& env) {
    while (!fs.formatted()) {
      env.SleepNs(100'000);
    }
    auto h = os2.DosOpen(env, "/Shared Report.doc", svc::kFsCreate | svc::kFsWrite);
    const char text[] = "written by OS/2";
    os2.DosWrite(env, *h, 0, text, sizeof(text));
    os2.DosClose(env, *h);
    std::printf("[os2]  wrote \"/Shared Report.doc\"\n");
    // The 8.3 world: the same name cannot exist under /fat.
    auto fat_try = os2.DosOpen(env, "/fat/Shared Report.doc", svc::kFsCreate | svc::kFsWrite);
    std::printf("[os2]  creating the long name on FAT -> %s (the paper's incompatibility)\n",
                base::StatusName(fat_try.status()).data());
    step = 2;
  });

  // 2. The UNIX process reads it back — with exact-case POSIX semantics it
  //    must spell the name correctly.
  pers::UnixProcess* shell = nullptr;
  shell = unix_pers.Spawn("sh", [&](mk::Env& env) {
    while (step < 2) {
      env.SleepNs(100'000);
    }
    auto fd = shell->Open(env, "/Shared Report.doc", pers::kORdOnly);
    char buf[64] = {};
    auto got = shell->Read(env, *fd, buf, sizeof(buf));
    std::printf("[unix] read %u bytes: \"%s\"\n", got.ok() ? *got : 0, buf);
    shell->Close(env, *fd);
    step = 3;
  });

  // 3. A DOS program appends a save file through INT 21h.
  pers::Vm86Assembler as;
  as.MovImm(pers::Vm86Reg::kAx, 0x3c00)  // create
      .MovImm(pers::Vm86Reg::kDx, 0x200)
      .Int(0x21)
      .MovReg(pers::Vm86Reg::kBx, pers::Vm86Reg::kAx)
      .MovImm(pers::Vm86Reg::kAx, 0x4000)  // write
      .MovImm(pers::Vm86Reg::kCx, 9)
      .MovImm(pers::Vm86Reg::kDx, 0x210)
      .MovImm(pers::Vm86Reg::kSi, 0)
      .Int(0x21)
      .MovImm(pers::Vm86Reg::kAx, 0x4c00)
      .Int(0x21);
  std::vector<uint8_t> image = as.code();
  image.resize(0x220, 0);
  std::memcpy(image.data() + 0x200, "DOSGAME.SAV", 12);
  std::memcpy(image.data() + 0x210, "SAVEDGAME", 9);
  kernel.CreateThread(dos.task(), "dos", [&](mk::Env& env) {
    while (step < 3) {
      env.SleepNs(100'000);
    }
    dos.LoadProgram(env, image);
    dos.Run(env, /*translated=*/true);
    std::printf("[dos]  program exited %d after %llu DOS calls (translator: %llu blocks)\n",
                dos.exit_code(), static_cast<unsigned long long>(dos.dos_calls()),
                static_cast<unsigned long long>(dos.vm().blocks_translated()));
    // Everyone sees everyone's files in the single rooted tree.
    svc::FsClient viewer(fs.GrantTo(*dos.task()));
    auto entries = viewer.ReadDir(env, "/");
    std::printf("[tree] '/' now holds:\n");
    for (const auto& e : *entries) {
      std::printf("[tree]   %s%s\n", e.name.c_str(), e.directory ? "/" : "");
    }
    fs.Stop();
    os2_server.Stop();
  });

  const size_t blocked = kernel.Run();
  std::printf("\nmachine halted; %zu threads still parked; simulated time %.3f ms\n", blocked,
              static_cast<double>(kernel.NowNs()) / 1e6);
  return 0;
}
