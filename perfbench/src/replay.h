#pragma once

#include <string>

#include "workloads.h"

namespace perfbench {

/// The one-thread traced replay of a workload's prepared inputs (`dir`):
/// each job calls the layers' public functions in the order the service
/// calls them, with a span around every call.  With `record` on it prints
/// the per-layer metrics homed on this workload and writes the spans to
/// `trace_out` (Chrome trace-event JSON) when given; with it off it only
/// replays, for the tracing-overhead comparison.  Returns the exit code.
int replay_main(Workload w, const std::string& dir, bool record,
                const std::string& trace_out);

}  // namespace perfbench
