#include <gtest/gtest.h>

#include "src/pers/mvm/mvm.h"
#include "src/pers/unixp/unix.h"
#include "tests/mk/kernel_test_fixture.h"

namespace pers {
namespace {

class PersonalityTest : public mk::KernelTest {
 protected:
  PersonalityTest() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 128 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
    fs_ = std::make_unique<svc::FileServer>(kernel_, kernel_.CreateTask("file-server"));
    EXPECT_EQ(fs_->AddVolume("/", store_.get(), svc::PfsKind::kJfs), base::Status::kOk);
    fs_->StartMkfs();
  }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::unique_ptr<svc::FileServer> fs_;
};

TEST_F(PersonalityTest, UnixOpenReadWriteWithImplicitOffset) {
  UnixPersonality unix_pers(kernel_, *fs_);
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("sh", [&](mk::Env& env) {
    auto fd = proc->Open(env, "/notes.txt", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    // Sequential writes advance the implicit offset.
    ASSERT_TRUE(proc->Write(env, *fd, "hello ", 6).ok());
    ASSERT_TRUE(proc->Write(env, *fd, "world", 5).ok());
    ASSERT_TRUE(proc->Lseek(env, *fd, 0, 0).ok());
    char buf[16] = {};
    auto got = proc->Read(env, *fd, buf, 11);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::string(buf, 11), "hello world");
    // Reads advanced the offset too; next read is empty.
    auto more = proc->Read(env, *fd, buf, 8);
    ASSERT_TRUE(more.ok());
    EXPECT_EQ(*more, 0u);
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// The errno mapping is the personality's overload surface: every graceful
// degradation status — shed (kBusy), breaker fast-fail (kUnavailable),
// bounded-call expiry (kTimedOut), legacy queue overflow (kQueueFull) —
// becomes EAGAIN ("try again"), not a hang and not a hard error.
TEST(UnixErrnoTest, DegradationStatusesMapToEagain) {
  EXPECT_EQ(UnixErrnoOf(base::Status::kOk), kEOk);
  EXPECT_EQ(UnixErrnoOf(base::Status::kBusy), kEAGAIN);
  EXPECT_EQ(UnixErrnoOf(base::Status::kUnavailable), kEAGAIN);
  EXPECT_EQ(UnixErrnoOf(base::Status::kTimedOut), kEAGAIN);
  EXPECT_EQ(UnixErrnoOf(base::Status::kQueueFull), kEAGAIN);
  EXPECT_EQ(UnixErrnoOf(base::Status::kWouldBlock), kEAGAIN);
  EXPECT_EQ(UnixErrnoOf(base::Status::kNotFound), kENOENT);
  EXPECT_EQ(UnixErrnoOf(base::Status::kPermissionDenied), kEACCES);
  EXPECT_EQ(UnixErrnoOf(base::Status::kAlreadyExists), kEEXIST);
  EXPECT_EQ(UnixErrnoOf(base::Status::kInvalidArgument), kEINVAL);
  EXPECT_EQ(UnixErrnoOf(base::Status::kPortDead), kEIO);
}

// A wedged file server must surface as EAGAIN through the personality, not
// hang the process: with an I/O timeout set, the process's Write comes back
// kTimedOut in bounded simulated time and maps to EAGAIN.
TEST_F(PersonalityTest, UnixIoTimeoutSurfacesWedgedServerAsEagain) {
  kernel_.faults().Enable(3);
  UnixPersonality unix_pers(kernel_, *fs_);
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("sh", [&](mk::Env& env) {
    // Open with no deadline: the concurrent mkfs can hold the fs well past
    // any reasonable I/O timeout. The bound under test is armed afterwards.
    auto fd = proc->Open(env, "/hang.txt", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    unix_pers.set_io_timeout_ns(3'000'000);
    // Wedge the server on the NEXT request (the fd's port is already warm).
    kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                         mk::fault::FaultMode::kStallTask, 100, /*max_fires=*/1);
    const uint64_t t0 = env.NowNs();
    auto got = proc->Write(env, *fd, "x", 1);
    const uint64_t waited = env.NowNs() - t0;
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status(), base::Status::kTimedOut);
    EXPECT_EQ(UnixErrnoOf(got.status()), kEAGAIN);
    EXPECT_GE(waited, 3'000'000u);
    EXPECT_LE(waited, 10'000'000u) << "the bounded call must not hang";
    // The wedged server cannot be stopped cleanly; terminate its task (the
    // watchdog's job in a full system).
    kernel_.TerminateTask(fs_->task());
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Regression: SEEK_END used to return kNotSupported — there was no way to
// ask the server for a handle's size. The handle-based stat fixed that.
TEST_F(PersonalityTest, UnixLseekSeekEndPositionsAtFileSize) {
  UnixPersonality unix_pers(kernel_, *fs_);
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("seeker", [&](mk::Env& env) {
    auto fd = proc->Open(env, "/seek.dat", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    char data[100];
    std::memset(data, 'x', sizeof(data));
    std::memcpy(data + 90, "0123456789", 10);
    ASSERT_TRUE(proc->Write(env, *fd, data, sizeof(data)).ok());
    auto end = proc->Lseek(env, *fd, 0, 2);  // SEEK_END
    ASSERT_TRUE(end.ok());
    EXPECT_EQ(*end, 100u);
    auto back = proc->Lseek(env, *fd, -10, 2);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, 90u);
    char tail[10] = {};
    auto got = proc->Read(env, *fd, tail, sizeof(tail));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::string(tail, 10), "0123456789");
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// Regression: O_APPEND writes used the per-fd offset, which goes stale the
// moment another descriptor grows the file. Every append must land at the
// file's *current* end.
TEST_F(PersonalityTest, UnixOAppendWritesAtCurrentEof) {
  UnixPersonality unix_pers(kernel_, *fs_);
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("appender", [&](mk::Env& env) {
    auto log_fd = proc->Open(env, "/app.log", kOCreat | kORdWr | kOAppend);
    ASSERT_TRUE(log_fd.ok());
    ASSERT_TRUE(proc->Write(env, *log_fd, "AAAA", 4).ok());
    // A second descriptor grows the file behind the append fd's back.
    auto other = proc->Open(env, "/app.log", kORdWr);
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(proc->Lseek(env, *other, 0, 2).ok());
    ASSERT_TRUE(proc->Write(env, *other, "BBBB", 4).ok());
    // The append write must land at offset 8, not the fd's stale offset 4.
    ASSERT_TRUE(proc->Write(env, *log_fd, "CC", 2).ok());
    char buf[16] = {};
    ASSERT_TRUE(proc->Lseek(env, *other, 0, 0).ok());
    auto got = proc->Read(env, *other, buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::string(buf, *got), "AAAABBBBCC");
    ASSERT_EQ(proc->Close(env, *log_fd), base::Status::kOk);
    ASSERT_EQ(proc->Close(env, *other), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// The personality-level cache switch: same POSIX semantics, fewer RPCs.
TEST_F(PersonalityTest, UnixFsCacheCutsRpcsTransparently) {
  UnixPersonality unix_pers(kernel_, *fs_);
  unix_pers.EnableFsCache();
  UnixProcess* proc = nullptr;
  proc = unix_pers.Spawn("cached", [&](mk::Env& env) {
    auto fd = proc->Open(env, "/cached.dat", kOCreat | kORdWr);
    ASSERT_TRUE(fd.ok());
    const uint64_t rpcs_before = kernel_.rpc_calls();
    char chunk[64];
    for (int i = 0; i < 16; ++i) {
      std::memset(chunk, 'a' + i, sizeof(chunk));
      ASSERT_TRUE(proc->Write(env, *fd, chunk, sizeof(chunk)).ok());
    }
    ASSERT_TRUE(proc->Lseek(env, *fd, 0, 0).ok());
    std::string all;
    for (int i = 0; i < 16; ++i) {
      auto got = proc->Read(env, *fd, chunk, sizeof(chunk));
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, sizeof(chunk));
      all.append(chunk, sizeof(chunk));
    }
    const uint64_t rpcs = kernel_.rpc_calls() - rpcs_before;
    EXPECT_LT(rpcs, 8u) << "16 writes + 16 reads should coalesce to a handful of RPCs";
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(all[i * 64], 'a' + i);
      EXPECT_EQ(all[i * 64 + 63], 'a' + i);
    }
    ASSERT_EQ(proc->Close(env, *fd), base::Status::kOk);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

TEST_F(PersonalityTest, DosBoxRunsProgramAndPrints) {
  DosBox box(kernel_, *fs_, "box0");
  // Program: print "HI" via INT 21h AH=02, then exit 0 via AH=4C.
  Vm86Assembler as;
  as.MovImm(Vm86Reg::kAx, 0x0200)
      .MovImm(Vm86Reg::kDx, 'H')
      .Int(0x21)
      .MovImm(Vm86Reg::kDx, 'I')
      .Int(0x21)
      .MovImm(Vm86Reg::kAx, 0x4c00)
      .Int(0x21);
  kernel_.CreateThread(box.task(), "dos", [&](mk::Env& env) {
    ASSERT_EQ(box.LoadProgram(env, as.code()), base::Status::kOk);
    auto n = box.Run(env, /*translated=*/false);
    ASSERT_TRUE(n.ok());
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(box.console(), "HI");
  EXPECT_EQ(box.exit_code(), 0);
}

TEST_F(PersonalityTest, DosFileIoThroughVirtualDeviceDriver) {
  DosBox box(kernel_, *fs_, "box1");
  // Program layout: filename at 0x200, data at 0x210.
  Vm86Assembler as;
  as.MovImm(Vm86Reg::kAx, 0x3c00)  // create
      .MovImm(Vm86Reg::kDx, 0x200)
      .Int(0x21)
      .MovReg(Vm86Reg::kBx, Vm86Reg::kAx)  // handle
      .MovImm(Vm86Reg::kAx, 0x4000)        // write
      .MovImm(Vm86Reg::kCx, 4)
      .MovImm(Vm86Reg::kDx, 0x210)
      .MovImm(Vm86Reg::kSi, 0)  // offset
      .Int(0x21)
      .MovImm(Vm86Reg::kAx, 0x3e00)  // close
      .Int(0x21)
      .MovImm(Vm86Reg::kAx, 0x4c00)
      .Int(0x21);
  std::vector<uint8_t> image = as.code();
  image.resize(0x220, 0);
  const char fname[] = "GAME.SAV";
  std::memcpy(image.data() + 0x200, fname, sizeof(fname));
  std::memcpy(image.data() + 0x210, "SAVE", 4);
  std::string content;
  kernel_.CreateThread(box.task(), "dos", [&](mk::Env& env) {
    ASSERT_EQ(box.LoadProgram(env, image), base::Status::kOk);
    ASSERT_TRUE(box.Run(env, /*translated=*/false).ok());
    // Verify through the file server that the DOS write landed.
    svc::FsClient fs(fs_->GrantTo(*box.task()));
    auto h = fs.Open(env, "/GAME.SAV");
    ASSERT_TRUE(h.ok());
    char buf[8] = {};
    auto got = fs.Read(env, *h, 0, buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    content.assign(buf, *got);
    fs_->Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(content, "SAVE");
  EXPECT_GE(box.dos_calls(), 4u);
}

TEST_F(PersonalityTest, TranslatorMatchesInterpreterAndIsFaster) {
  // Sum 1..100 in a loop: CX counts down, BX accumulates.
  Vm86Assembler as;
  as.MovImm(Vm86Reg::kCx, 100).MovImm(Vm86Reg::kBx, 0);
  const uint16_t loop_top = as.here();
  as.Add(Vm86Reg::kBx, Vm86Reg::kCx).Loop(loop_top).Store(0x500, Vm86Reg::kBx).Hlt();

  auto run = [&](bool translated) {
    DosBox box(kernel_, *fs_, translated ? "xlate" : "interp");
    uint64_t cycles = 0;
    uint16_t result = 0;
    kernel_.CreateThread(box.task(), "dos", [&](mk::Env& env) {
      ASSERT_EQ(box.LoadProgram(env, as.code()), base::Status::kOk);
      const uint64_t c0 = kernel_.cpu().cycles();
      auto n = box.Run(env, translated);
      ASSERT_TRUE(n.ok());
      cycles = kernel_.cpu().cycles() - c0;
      auto w = box.vm().ReadWord(env, 0x500);
      ASSERT_TRUE(w.ok());
      result = *w;
    });
    kernel_.Run();
    EXPECT_EQ(result, 5050u);
    if (translated) {
      EXPECT_GE(box.vm().blocks_translated(), 1u);
      EXPECT_GT(box.vm().translation_cache_hits(), 50u);
    }
    return cycles;
  };
  const uint64_t interp_cycles = run(false);
  const uint64_t xlate_cycles = run(true);
  EXPECT_LT(xlate_cycles, interp_cycles)
      << "hot loops must run faster under the block translator";
  // This test never touches the file server; its thread simply stays parked.
}

}  // namespace
}  // namespace pers
