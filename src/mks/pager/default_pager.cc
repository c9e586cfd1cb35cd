#include "src/mks/pager/default_pager.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/base/log.h"
#include "src/mk/vm_object.h"

namespace mks {

namespace {
const hw::CodeRegion& ServeRegion() {
  static const hw::CodeRegion r = hw::DefineCode("mks.pager.serve", 240);
  return r;
}
}  // namespace

DefaultPager::DefaultPager(mk::Kernel& kernel, mk::Task* task, std::unique_ptr<BlockStore> store)
    : kernel_(kernel), task_(task), store_(std::move(store)) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  port_raw_ = *kernel_.ResolvePort(*task_, receive_port_);
  // In: one page (a kDataWrite's payload).
  loop_ = std::make_unique<mk::ServerLoop>(receive_port_, "pager", hw::kPageSize);
  kernel_.CreateThread(task_, "default-pager", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 3);
}

std::shared_ptr<mk::VmObject> DefaultPager::CreateBackedObject(uint64_t size) {
  auto object = std::make_shared<mk::VmObject>(hw::PageRound(size));
  kernel_.RegisterPagedObject(object, port_raw_, 0);
  return object;
}

base::Result<uint64_t> DefaultPager::LbaFor(uint64_t object_id, uint64_t page_index,
                                            bool allocate) {
  const auto key = std::make_pair(object_id, page_index);
  auto it = allocation_.find(key);
  if (it != allocation_.end()) {
    return it->second;
  }
  if (!allocate) {
    return base::Status::kNotFound;
  }
  uint64_t lba = next_lba_;
  if (!free_lbas_.empty()) {
    lba = free_lbas_.back();
    free_lbas_.pop_back();
  } else if (store_->num_sectors() - next_lba_ < kSectorsPerPage) {
    return base::Status::kResourceShortage;  // the paging partition is full
  } else {
    next_lba_ += kSectorsPerPage;
  }
  allocation_.emplace(key, lba);
  return lba;
}

base::Status DefaultPager::Preload(uint64_t object_id, uint64_t page_index, const void* page) {
  // Host-side staging: the page is held in memory and served (or flushed by a
  // later data-write) as if it had been paged out before the system booted.
  std::vector<uint8_t> copy(hw::kPageSize);
  std::memcpy(copy.data(), page, hw::kPageSize);
  preloaded_[std::make_pair(object_id, page_index)] = std::move(copy);
  return base::Status::kOk;
}

void DefaultPager::Serve(mk::Env& env) {
  std::vector<uint8_t> out(hw::kPageSize);  // a kDataRequest's page
  loop_->Run<mk::PagerRequest>(env, [&](mk::Env& env, const mk::RpcRequest& rpc,
                                        const mk::PagerRequest& req, const uint8_t* page,
                                        uint32_t page_len) {
    mk::trace::MetricRegistry& metrics = kernel_.tracer().metrics();
    kernel_.cpu().Execute(ServeRegion());
    base::Status st = base::Status::kOk;
    uint32_t bytes = 0;  // of `out`, sent when the op succeeds
    if (req.op == mk::PagerOp::kDataRequest) {
      ++pageins_served_;
      ++metrics.Counter("server.pager.pageins");
      const auto key = std::make_pair(req.object_id, req.page_index);
      bytes = hw::kPageSize;
      if (auto pre = preloaded_.find(key); pre != preloaded_.end()) {
        out = pre->second;
      } else if (const base::Result<uint64_t> lba =
                     LbaFor(req.object_id, req.page_index, /*allocate=*/false);
                 lba.ok()) {
        st = store_->Read(env, *lba, kSectorsPerPage, out.data());
      } else {
        std::fill(out.begin(), out.end(), 0);  // never-written pages page in as zeros
      }
    } else if (req.op == mk::PagerOp::kDataWrite) {
      ++pageouts_served_;
      ++metrics.Counter("server.pager.pageouts");
      if (page_len != hw::kPageSize) {
        st = base::Status::kInvalidArgument;
      } else if (const base::Result<uint64_t> lba =
                     LbaFor(req.object_id, req.page_index, /*allocate=*/true);
                 lba.ok()) {
        st = store_->Write(env, *lba, kSectorsPerPage, page);
        preloaded_.erase(std::make_pair(req.object_id, req.page_index));
      } else {
        st = lba.status();  // the partition is full
      }
    } else if (req.op == mk::PagerOp::kObjectTerminate) {
      const uint64_t gone = req.object_id;
      // The object's pages go back to the partition.
      const auto first = allocation_.lower_bound({gone, 0});
      const auto last = allocation_.upper_bound({gone, ~0ull});
      for (auto it = first; it != last; ++it) {
        free_lbas_.push_back(it->second);
      }
      allocation_.erase(first, last);
      std::erase_if(preloaded_, [gone](const auto& kv) { return kv.first.first == gone; });
    } else if (req.op != mk::PagerOp::kObjectSetup) {
      // kObjectSetup is an ack: the backing store allocates lazily.
      st = base::Status::kNotSupported;
    }
    const mk::PagerReply reply{static_cast<int32_t>(st)};
    loop_->Reply(rpc, &reply, sizeof(reply), out.data(), st == base::Status::kOk ? bytes : 0);
  });
}

}  // namespace mks
