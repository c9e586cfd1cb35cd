// The Table 1 workload suite. Each workload reproduces the *profile* of its
// paper counterpart (where the time goes), not the retail binary:
//   File Intensive 1  (IBM Works applications): document processing — many
//                     small files created, written, re-read, listed, deleted.
//   File Intensive 2  (IBM Works ToDo): record-oriented — one database file,
//                     many small in-place record reads/updates.
//   Graphics Low/Medium/High (Klondike): frame loop of application compute
//                     plus direct-to-framebuffer drawing; the level scales
//                     the number of draw calls and pixels per frame.
//   PM Tasking Medium (Swp32): two windows exchanging messages and switching.
//   PM Tasking High   (Wind32): many windows, rapid switching with repaints.
#ifndef BENCH_LIB_WORKLOADS_H_
#define BENCH_LIB_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench/lib/systems.h"

namespace bench {

struct WorkloadResult {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  double seconds = 0;  // simulated
};

using Workload = void (*)(mk::Env&, Os2ApiBase&);

void FileIntensive1(mk::Env& env, Os2ApiBase& api);
void FileIntensive2(mk::Env& env, Os2ApiBase& api);
void GraphicsLow(mk::Env& env, Os2ApiBase& api);
void GraphicsMedium(mk::Env& env, Os2ApiBase& api);
void GraphicsHigh(mk::Env& env, Os2ApiBase& api);
void PmTaskingMedium(mk::Env& env, Os2ApiBase& api);
void PmTaskingHigh(mk::Env& env, Os2ApiBase& api);

struct NamedWorkload {
  const char* name;           // paper row name
  const char* content;        // paper "Application Content"
  Workload fn;
  double paper_ratio;         // the paper's WPOS:OS/2 ratio
};

// The seven Table 1 rows, in paper order.
const std::vector<NamedWorkload>& Table1Workloads();

// Runs `workload` to completion on a fresh system of the given kind and
// returns the measured window (excluding one warm-up pass). A non-empty
// `trace_path` arms the causal tracer for the run and exports the Chrome
// trace plus the request-tree report (see bench/lib/trace_export.h);
// tracing charges no simulated cycles, so the window is unchanged.
WorkloadResult RunOnWpos(Workload workload, const std::string& trace_path);
WorkloadResult RunOnMono(Workload workload);

}  // namespace bench

#endif  // BENCH_LIB_WORKLOADS_H_
