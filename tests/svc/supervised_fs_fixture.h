// The supervised file server the respawn suites share (FaultE2eTest,
// FaultMmapE2eTest and StallE2eTest): a name server, a restart manager that
// supervises the file server under kFsName, a client task, and the factory
// that builds each generation of the server.
//
// Campaigns are seeded from WPOS_FAULT_SEED (default 1), so CI can soak
// many of them over one binary; a failing seed replays alone.
#ifndef TESTS_SVC_SUPERVISED_FS_FIXTURE_H_
#define TESTS_SVC_SUPERVISED_FS_FIXTURE_H_

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/mks/restart/restart_manager.h"
#include "src/svc/fs/file_server.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {

inline constexpr char kFsName[] = "/svc/fs";

inline uint64_t CampaignSeed() {
  const char* env = std::getenv("WPOS_FAULT_SEED");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  return std::strtoull(env, nullptr, 10);
}

class SupervisedFsTest : public mk::KernelTest {
 protected:
  SupervisedFsTest() {
    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 256 * 1024})));
    store_ = std::make_unique<mks::BackdoorBlockStore>(disk, 10'000);
  }

  // Builds the services and generation 0, which formats its volume from its
  // own task. `each_generation` runs on every generation's server before it
  // serves.
  void Start(const mks::RestartPolicy& policy,
             std::function<void(FileServer&)> each_generation = nullptr) {
    each_generation_ = std::move(each_generation);
    ns_ = std::make_unique<mks::NameServer>(kernel_, kernel_.CreateTask("mks-naming"));
    mgr_task_ = kernel_.CreateTask("mks-restart");
    mgr_ = std::make_unique<mks::RestartManager>(kernel_, mgr_task_, ns_->GrantTo(*mgr_task_),
                                                 policy);
    client_task_ = kernel_.CreateTask("client");
    ns_for_client_ = ns_->GrantTo(*client_task_);
    mk::Task* gen0 = SpawnFs();
    servers_[0]->StartMkfs();
    mgr_->Supervise(kFsName, gen0, [this](mk::Env&) {
      mk::Task* task = SpawnFs();
      auto right = kernel_.MakeSendRight(*task, servers_.back()->receive_port(), *mgr_task_);
      EXPECT_TRUE(right.ok());
      return mks::RestartManager::Respawned{task, right.ok() ? *right : mk::kNullPort};
    });
  }

  // Generation 0 owns the volume, and every later generation mounts its
  // PFS. So a successor serves its dead predecessor's cache and PFS
  // objects, not what the disk holds (ROADMAP item 13 removes this).
  mk::Task* SpawnFs() {
    const uint64_t gen = static_cast<uint64_t>(servers_.size());
    mk::Task* task = kernel_.CreateTask("file-server-g" + std::to_string(gen));
    // A fresh handle base per generation: stale handles from the crashed
    // instance can never alias a live one.
    auto server = std::make_unique<FileServer>(kernel_, task, gen * 1'000'000 + 1);
    EXPECT_EQ(gen == 0 ? server->AddVolume("/", store_.get())
                       : server->AddMount("/", &servers_[0]->volume(0).pfs()),
              base::Status::kOk);
    if (each_generation_ != nullptr) {
      each_generation_(*server);
    }
    servers_.push_back(std::move(server));
    return task;
  }

  // From a client-task thread: registers generation 0 under kFsName, and
  // answers the client's send right to it.
  base::Result<mk::PortName> RegisterFs(mk::Env& env) {
    auto right =
        kernel_.MakeSendRight(*servers_[0]->task(), servers_[0]->receive_port(), *client_task_);
    if (!right.ok()) {
      return right.status();
    }
    const base::Status st = mks::NameClient(ns_for_client_).Register(env, kFsName, *right);
    return st == base::Status::kOk ? right : base::Result<mk::PortName>(st);
  }

  // Orderly shutdown of the generation serving now and of the services.
  void StopAll() {
    servers_.back()->Stop();
    mgr_->Stop();
    ns_->Stop();
  }

  std::unique_ptr<mks::BackdoorBlockStore> store_;
  std::function<void(FileServer&)> each_generation_;
  std::unique_ptr<mks::NameServer> ns_;
  mk::Task* mgr_task_ = nullptr;
  std::unique_ptr<mks::RestartManager> mgr_;
  mk::Task* client_task_ = nullptr;
  mk::PortName ns_for_client_ = mk::kNullPort;
  std::vector<std::unique_ptr<FileServer>> servers_;
};

}  // namespace svc

#endif  // TESTS_SVC_SUPERVISED_FS_FIXTURE_H_
