// Chrome trace-event / Perfetto export of a sim/trace Trace: each rank
// becomes one named track ("rank N") of complete ("ph":"X") duration
// events, so any traced run can be inspected in chrome://tracing or
// https://ui.perfetto.dev without bespoke tooling. TraceEvents carry
// durations but no wall-clock timestamps (the sim owns the clock), so the
// exporter lays each rank's events end to end on a per-rank cursor —
// within a rank the recorded order *is* chronological order.
#pragma once

#include <string>

namespace grace::sim {

class Trace;

// JSON object format ({"traceEvents":[...],...}), timestamps in
// microseconds as the spec requires.
std::string trace_chrome_json(const Trace& t);

}  // namespace grace::sim
