#include "sim/trace.h"

#include <cassert>
#include <limits>
#include <sstream>

#include "sim/metrics.h"
#include "util/json.h"

namespace grace::sim {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Forward: return "forward";
    case Phase::Backward: return "backward";
    case Phase::Compress: return "compress";
    case Phase::Comm: return "comm";
    case Phase::Decompress: return "decompress";
    case Phase::Optimizer: return "optimizer";
    case Phase::Fault: return "fault";
  }
  return "unknown";
}

Trace::Trace(int n_ranks) : ranks_(static_cast<size_t>(n_ranks)) {
  assert(n_ranks >= 1);
}

void Trace::record(int rank, const TraceEvent& ev) {
  ranks_.at(static_cast<size_t>(rank)).push_back(ev);
}

std::vector<TraceEvent> Trace::events() const {
  std::vector<TraceEvent> out;
  size_t total = 0;
  for (const auto& events : ranks_) total += events.size();
  out.reserve(total);
  for (const auto& events : ranks_) {
    out.insert(out.end(), events.begin(), events.end());
  }
  return out;
}

namespace {

using util::json::Number;

// {"histograms":[...]} with per-histogram p50/p99 and sparse [bucket, count]
// pairs.
void append_histograms(std::ostream& os,
                       const std::vector<HistogramSnapshot>& histograms) {
  os << "{\"histograms\":[";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i) os << ',';
    os << "{\"name\":";
    util::json::append_escaped(os, h.name);
    os << ",\"count\":" << h.count << ",\"sum\":" << Number{h.sum}
       << ",\"min\":" << Number{h.min} << ",\"max\":" << Number{h.max}
       << ",\"mean\":" << Number{h.mean()}
       << ",\"p50\":" << Number{h.percentile(0.5)}
       << ",\"p99\":" << Number{h.percentile(0.99)} << ",\"buckets\":[";
    bool first = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[static_cast<size_t>(b)] == 0) continue;
      if (!first) os << ',';
      first = false;
      os << '[' << b << ',' << h.buckets[static_cast<size_t>(b)] << ']';
    }
    os << "]}";
  }
  os << "]}";
}

}  // namespace

std::string run_result_json(const RunResult& r) {
  std::ostringstream os;
  // Round-trip precision: sub-microsecond phase sums must survive
  // serialization exactly, and precision(9) truncates doubles.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << '{';
  os << "\"model\":";
  util::json::append_escaped(os, r.model);
  os << ",\"compressor\":";
  util::json::append_escaped(os, r.compressor);
  os << ",\"topology\":";
  util::json::append_escaped(os, r.topology);
  os << ",\"quality_metric\":";
  util::json::append_escaped(os, r.quality_metric);
  os << ",\"phases\":{";
  os << "\"forward\":" << Number{r.phases.forward_s}
     << ",\"backward\":" << Number{r.phases.backward_s}
     << ",\"compress\":" << Number{r.phases.compress_s}
     << ",\"comm\":" << Number{r.phases.comm_s}
     << ",\"decompress\":" << Number{r.phases.decompress_s}
     << ",\"optimizer\":" << Number{r.phases.optimizer_s}
     << ",\"stall\":" << Number{r.phases.stall_s} << '}';
  os << ",\"iteration_seconds\":"
     << Number{r.iteration_s > 0.0 ? r.iteration_s : r.phases.total_s()};
  os << ",\"additive_iteration_seconds\":" << Number{r.phases.total_s()};
  os << ",\"overlap_saved_seconds\":" << Number{r.overlap_saved_s};
  os << ",\"overlap_fraction\":" << Number{r.overlap_fraction};
  os << ",\"buckets_per_iter\":" << r.buckets_per_iter;
  os << ",\"wire_bytes_per_iter\":" << Number{r.wire_bytes_per_iter};
  os << ",\"throughput\":" << Number{r.throughput};
  os << ",\"total_sim_seconds\":" << Number{r.total_sim_seconds};
  os << ",\"final_train_loss\":"
     << Number{r.epochs.empty() ? 0.0 : r.epochs.back().train_loss};
  os << ",\"final_quality\":" << Number{r.final_quality};
  os << ",\"best_quality\":" << Number{r.best_quality};
  os << ",\"samples_per_epoch\":" << r.samples_per_epoch;
  os << ",\"samples_dropped_per_epoch\":" << r.samples_dropped_per_epoch;
  os << ",\"comm_messages\":" << r.comm_messages;
  os << ",\"comm_payload_bytes\":" << r.comm_payload_bytes;
  os << ",\"model_parameters\":" << r.model_parameters;
  os << ",\"gradient_tensors\":" << r.gradient_tensors;
  os << ",\"replicas_in_sync\":" << (r.replicas_in_sync ? "true" : "false");
  os << ",\"parameters_crc32\":" << r.parameters_crc32;
  os << ",\"faults\":{";
  for (size_t i = 0; i < std::size(faults::kFaultFields); ++i) {
    const faults::FaultField& f = faults::kFaultFields[i];
    if (i) os << ',';
    os << '"' << f.name << "\":";
    if (f.count != nullptr) {
      os << r.faults.*f.count;
    } else {
      os << Number{r.faults.*f.seconds};
    }
  }
  os << '}';
  os << ",\"tensors\":[";
  for (size_t i = 0; i < r.tensor_trace.size(); ++i) {
    const TensorTraceSummary& t = r.tensor_trace[i];
    if (i) os << ',';
    os << "{\"name\":";
    util::json::append_escaped(os, t.name);
    os << ",\"numel\":" << t.numel << ",\"exchanges\":" << t.exchanges
       << ",\"compress_seconds\":" << Number{t.compress_s}
       << ",\"comm_seconds\":" << Number{t.comm_s}
       << ",\"decompress_seconds\":" << Number{t.decompress_s}
       << ",\"wire_bytes\":" << t.wire_bytes << '}';
  }
  os << ']';
  os << ",\"fidelity\":" << fidelity_summaries_json(r.fidelity);
  os << ",\"metrics\":";
  append_histograms(os, r.metric_histograms);
  os << ",\"control\":" << control::control_summary_json(r.control);
  os << '}';
  return os.str();
}

}  // namespace grace::sim
