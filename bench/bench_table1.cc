// Reproduces Table 1: "OS/2 Performance Comparisons" — the ratio of
// WPOS-OS/2 elapsed time to monolithic-OS/2 elapsed time for the seven
// application workloads, plus the overall (geometric-mean) ratio.
//
// Paper shape to reproduce: file-intensive ≈ 3x slower on the microkernel
// system (RPC to the file server and driver), graphics ≈ 0.7-0.9 (user-level
// shared libraries drive the framebuffer directly, without the monolithic
// system's 16-bit GRE layer), PM tasking ≈ 0.8-1.0, overall ≈ 1.2.
#include "src/base/log.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "bench/lib/json_report.h"
#include "bench/lib/trace_export.h"
#include "bench/lib/workloads.h"

namespace {

void PrintTable1(bench::JsonReport* report, const std::string& trace_path) {
  std::printf("\n=== Table 1: OS/2 Performance Comparisons ===\n");
  std::printf("%-20s %-24s %14s %14s %10s %10s\n", "Test", "Application Content",
              "WPOS (ms)", "OS/2 (ms)", "ratio", "paper");
  double log_sum = 0;
  double paper_log_sum = 0;
  bool first = true;
  for (const bench::NamedWorkload& w : bench::Table1Workloads()) {
    // `--trace` captures the first (file-intensive) row: the one whose
    // DosOpen/DosRead requests hop personality -> FS server -> driver.
    const bench::WorkloadResult wpos =
        bench::RunOnWpos(w.fn, first ? trace_path : std::string());
    first = false;
    const bench::WorkloadResult mono = bench::RunOnMono(w.fn);
    const double ratio = wpos.seconds / mono.seconds;
    log_sum += std::log(ratio);
    paper_log_sum += std::log(w.paper_ratio);
    std::printf("%-20s %-24s %14.2f %14.2f %10.2f %10.2f\n", w.name, w.content,
                wpos.seconds * 1e3, mono.seconds * 1e3, ratio, w.paper_ratio);
    report->Add(std::string(w.name) + ".ratio", ratio, w.paper_ratio);
  }
  const size_t n = bench::Table1Workloads().size();
  const double geomean = std::exp(log_sum / static_cast<double>(n));
  const double paper_geomean = std::exp(paper_log_sum / static_cast<double>(n));
  std::printf("%-20s %-24s %14s %14s %10.2f %10.2f\n", "Overall", "(geometric mean)", "", "",
              geomean, paper_geomean);
  report->Add("overall.geomean_ratio", geomean, paper_geomean);
  std::printf("ratio = WPOS elapsed / monolithic elapsed; >1 means the multi-server system"
              " is slower\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractJsonPath(&argc, argv);
  const std::string trace_path = bench::ExtractTracePath(&argc, argv);
  base::SetLogLevel(base::LogLevel::kError);  // parked servers at halt are expected
  bench::JsonReport report;
  PrintTable1(&report, trace_path);
  if (!json_path.empty()) {
    WPOS_CHECK(report.WriteFile(json_path)) << "cannot write " << json_path;
  }
  return 0;
}
