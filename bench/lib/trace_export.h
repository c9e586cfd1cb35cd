// Shared `--trace <path>` support for the bench binaries. Every bench_*
// accepts the flag; the designated representative run arms the kernel's
// tracer and exports two artifacts:
//   <path>            Chrome trace-event JSON (slices + causal flow arrows)
//   <path>.trees.txt  deterministic causal request-tree report with per-hop
//                     queue-wait / handler attribution
// Tracing is host-side bookkeeping (zero simulated cycles), so arming it on
// a measured run does not move any reported number — bench_table2 checks
// that equality on every run.
#ifndef BENCH_LIB_TRACE_EXPORT_H_
#define BENCH_LIB_TRACE_EXPORT_H_

#include <string>

namespace mk {
class Kernel;
}

namespace bench {

// Removes `--trace <path>` from argv and returns the path, or "" when absent.
std::string ExtractTracePath(int* argc, char** argv);

// Enables `kernel`'s tracer when `path` is non-empty.
void ArmTrace(mk::Kernel& kernel, const std::string& path);

// Writes the two artifacts for an armed kernel; no-op on an empty path.
void ExportTrace(mk::Kernel& kernel, const std::string& path);

}  // namespace bench

#endif  // BENCH_LIB_TRACE_EXPORT_H_
