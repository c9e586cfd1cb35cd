// Differential test of the drawing code the two window systems share: one
// seeded sequence of window creates, fills, blits and switches runs on a PM
// desktop (WPOS: the user-level library over drv::FbDriver) and on the
// monolithic comparator (baseline::MonolithicOs), each on a machine of its
// own. After every call both systems give the same status and leave the
// same framebuffer bytes, and both match a host-side model of the windows
// and the screen. Rectangles include the screen's and the window's edges,
// zero sizes and ones whose x + w or y + h wraps past 2^32. A failing step
// prints its seed and the ops so far; replay with WPOS_PROPS_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/baseline/monolithic.h"
#include "src/drv/fb_driver.h"
#include "src/pers/os2/pm.h"
#include "tests/props/seeds.h"

namespace pers {
namespace {

constexpr uint32_t kWidth = 64;
constexpr uint32_t kHeight = 48;
constexpr uint32_t kHuge = 0xFFFFFFFA;
constexpr int kOpsPerSeed = 300;

enum class OpKind { kCreate, kFill, kBlit, kSwitch };

struct Op {
  OpKind kind = OpKind::kCreate;
  uint32_t hwnd = 0;
  uint32_t x = 0, y = 0, w = 0, h = 0;
  uint8_t color = 0;
};

std::string Describe(const Op& op) {
  static const char* const kNames[] = {"create", "fill", "blit", "switch"};
  std::ostringstream out;
  out << kNames[static_cast<int>(op.kind)] << " hwnd=" << op.hwnd << " (" << op.x << ", " << op.y
      << ") " << op.w << "x" << op.h;
  return out.str();
}

// "" when the screens match, else where they first differ.
std::string FirstDiff(const std::vector<uint8_t>& got, const std::vector<uint8_t>& want) {
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  if (diff.first == got.end()) {
    return "";
  }
  const size_t at = static_cast<size_t>(diff.first - got.begin());
  std::ostringstream out;
  out << "pixel (" << at % kWidth << ", " << at / kWidth << ") is " << int{*diff.first}
      << ", not " << int{*diff.second};
  return out.str();
}

// What one call left behind.
struct Step {
  base::Status status = base::Status::kOk;
  std::vector<uint8_t> screen;
};

// A start and a size against [0, bound): inside, up to the edge, one past
// it, empty, or wrapping.
void Span(base::Rng& rng, uint32_t bound, uint32_t* at, uint32_t* size) {
  *at = static_cast<uint32_t>(rng.NextBelow(uint64_t{bound} + 1));
  switch (rng.NextBelow(7)) {
    case 0:
      *size = 0;
      break;
    case 1:
      *size = bound - *at;
      break;
    case 2:
      *size = bound - *at + 1;
      break;
    case 3:
      *size = kHuge;  // *at + size wraps to just below *at
      break;
    case 4:
      *at = kHuge;
      *size = 10;  // wraps to 4
      break;
    default:
      *size = *at < bound ? static_cast<uint32_t>(rng.NextInRange(1, bound - *at)) : 1;
  }
}

// The model: windows as created, and the screen as the fills left it. Its
// checks are written apart from drv::RectInside, in 64-bit sums that cannot
// wrap.
class Model {
 public:
  Model() : screen_(kWidth * kHeight, 0) {}

  static bool Inside(const Op& op, uint32_t width, uint32_t height) {
    return uint64_t{op.x} + op.w <= width && uint64_t{op.y} + op.h <= height;
  }

  // Picks the next op and applies it; returns the status both systems owe.
  base::Status Next(base::Rng& rng, Op* op) {
    const uint64_t r = rng.NextBelow(100);
    op->kind = r < 20 ? OpKind::kCreate
                      : r < 65 ? OpKind::kFill : r < 90 ? OpKind::kBlit : OpKind::kSwitch;
    // Mostly a live window, now and then 0 or one not yet made.
    op->hwnd = windows_.empty() || rng.NextBool(0.1)
                   ? (rng.NextBool(0.5) ? 0u : next_hwnd_)
                   : static_cast<uint32_t>(rng.NextInRange(1, next_hwnd_ - 1));
    op->color = static_cast<uint8_t>(rng.NextInRange(1, 255));
    if (op->kind == OpKind::kCreate) {
      Span(rng, kWidth, &op->x, &op->w);
      Span(rng, kHeight, &op->y, &op->h);
      if (!Inside(*op, kWidth, kHeight)) {
        return base::Status::kInvalidArgument;
      }
      windows_[next_hwnd_++] = *op;
      return base::Status::kOk;
    }
    auto it = windows_.find(op->hwnd);
    const Op win = it != windows_.end() ? it->second : Op{};
    Span(rng, win.w, &op->x, &op->w);
    Span(rng, win.h, &op->y, &op->h);
    if (it == windows_.end()) {
      return base::Status::kNotFound;
    }
    if (op->kind == OpKind::kSwitch) {
      return base::Status::kOk;  // repaints the whole window
    }
    if (!Inside(*op, win.w, win.h)) {
      return base::Status::kInvalidArgument;
    }
    if (op->kind == OpKind::kFill) {
      for (uint32_t row = 0; row < op->h; ++row) {
        const uint64_t at = uint64_t{win.y + op->y + row} * kWidth + win.x + op->x;
        std::fill_n(screen_.begin() + static_cast<std::ptrdiff_t>(at), op->w, op->color);
      }
    }
    return base::Status::kOk;
  }

  const std::vector<uint8_t>& screen() const { return screen_; }

 private:
  std::map<uint32_t, Op> windows_;
  uint32_t next_hwnd_ = 1;
  std::vector<uint8_t> screen_;
};

// One machine with a kWidth x kHeight framebuffer, and a thread that runs
// `call` for each op and records what it left.
class Rig {
 public:
  Rig() : machine_(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024}), kernel_(&machine_) {
    fb_ = new hw::Framebuffer("fb0", &machine_, kWidth, kHeight);
    machine_.AddDevice(std::unique_ptr<hw::Device>(fb_));
    app_ = kernel_.CreateTask("app");
  }

  std::vector<Step> Run(const std::vector<Op>& ops,
                        const std::function<base::Status(mk::Env&, const Op&)>& call) {
    std::vector<Step> steps;
    kernel_.CreateThread(app_, "main", [&](mk::Env& env) {
      for (const Op& op : ops) {
        Step step{call(env, op), std::vector<uint8_t>(kWidth * kHeight)};
        machine_.mem().Read(fb_->vram_base(), step.screen.data(), step.screen.size());
        steps.push_back(std::move(step));
      }
    });
    EXPECT_EQ(kernel_.Run(), 0u);
    EXPECT_EQ(kernel_.CheckInvariants(), 0u);
    return steps;
  }

  hw::Machine machine_;
  mk::Kernel kernel_;
  hw::Framebuffer* fb_;
  mk::Task* app_;
};

std::vector<Step> RunOnPm(const std::vector<Op>& ops) {
  Rig rig;
  drv::FbDriver fb(rig.kernel_, rig.fb_);
  PmDesktop desktop(rig.kernel_, &fb);
  auto session = desktop.Attach(*rig.app_);
  EXPECT_TRUE(session.ok());
  PmSession& pm = **session;
  return rig.Run(ops, [&](mk::Env& env, const Op& op) {
    switch (op.kind) {
      case OpKind::kCreate:
        return pm.CreateWindow(env, "w", op.x, op.y, op.w, op.h).status();
      case OpKind::kFill:
        return pm.FillRect(env, op.hwnd, op.x, op.y, op.w, op.h, op.color);
      case OpKind::kBlit:
        return pm.BitBlt(env, op.hwnd, op.x, op.y, op.w, op.h);
      case OpKind::kSwitch:
        return pm.SwitchTo(env, op.hwnd);
    }
    return base::Status::kNotSupported;
  });
}

std::vector<Step> RunOnMonolithic(const std::vector<Op>& ops) {
  Rig rig;
  baseline::MonolithicOs os(rig.kernel_, /*pfs=*/nullptr, rig.fb_);
  auto vram = os.MapVram(*rig.app_);
  EXPECT_TRUE(vram.ok());
  mk::Task& app = *rig.app_;
  return rig.Run(ops, [&](mk::Env& env, const Op& op) {
    switch (op.kind) {
      case OpKind::kCreate:
        return os.WinCreate(env, op.x, op.y, op.w, op.h).status();
      case OpKind::kFill:
        return os.WinFillRect(env, app, *vram, op.hwnd, op.x, op.y, op.w, op.h, op.color);
      case OpKind::kBlit:
        return os.WinBitBlt(env, app, *vram, op.hwnd, op.x, op.y, op.w, op.h);
      case OpKind::kSwitch:
        return os.WinSwitch(env, app, *vram, op.hwnd);
    }
    return base::Status::kNotSupported;
  });
}

TEST(DrawParityPropsTest, SeededDrawsMatchOnBothSystemsAndTheModel) {
  uint64_t drawn = 0;
  uint64_t refused = 0;
  for (uint64_t seed : props::SeedsUnderTest()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    base::Rng rng(seed);
    Model model;
    std::vector<Op> ops(kOpsPerSeed);
    std::vector<base::Status> want;
    std::vector<std::vector<uint8_t>> want_screen;
    for (Op& op : ops) {
      want.push_back(model.Next(rng, &op));
      want_screen.push_back(model.screen());
    }
    const std::vector<Step> pm = RunOnPm(ops);
    const std::vector<Step> mono = RunOnMonolithic(ops);
    ASSERT_EQ(pm.size(), ops.size());
    ASSERT_EQ(mono.size(), ops.size());
    std::ostringstream trace;
    for (size_t i = 0; i < ops.size(); ++i) {
      trace << Describe(ops[i]) << " -> " << base::StatusName(want[i]) << "\n";
      const std::string where = "step " + std::to_string(i) + "\n" + trace.str();
      ASSERT_EQ(base::StatusName(pm[i].status), base::StatusName(want[i])) << "PM, " << where;
      ASSERT_EQ(base::StatusName(mono[i].status), base::StatusName(want[i]))
          << "monolithic, " << where;
      ASSERT_EQ(FirstDiff(pm[i].screen, want_screen[i]), "") << "PM, " << where;
      ASSERT_EQ(FirstDiff(mono[i].screen, pm[i].screen), "") << "monolithic, " << where;
      ++(want[i] == base::Status::kOk ? drawn : refused);
    }
  }
  EXPECT_GT(drawn, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace pers
