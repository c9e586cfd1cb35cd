// Sinks for the tracer's data sets:
//   WriteChromeTrace  — Chrome trace-event JSON (chrome://tracing, Perfetto):
//                       span slices with per-phase sub-slices, instant
//                       events, thread-name metadata, and flow arrows
//                       linking cross-thread parent/child spans of a trace.
//   WriteMetricsJson  — machine-readable dump of counters, gauges,
//                       histograms, span aggregates and the CPU counters.
//   WriteRequestTrees — deterministic text report of every causal request
//                       tree: one indented tree per trace id with per-hop
//                       cycle attribution (client send / port queue wait /
//                       server handler / reply return) and the critical
//                       path marked.
// All sinks are read-only over the kernel and charge no simulated cycles.
#ifndef SRC_MK_TRACE_EXPORTERS_H_
#define SRC_MK_TRACE_EXPORTERS_H_

#include <ostream>

namespace mk {

class Kernel;

namespace trace {

void WriteChromeTrace(std::ostream& os, Kernel& kernel);
void WriteMetricsJson(std::ostream& os, Kernel& kernel);
void WriteRequestTrees(std::ostream& os, Kernel& kernel);

}  // namespace trace
}  // namespace mk

#endif  // SRC_MK_TRACE_EXPORTERS_H_
