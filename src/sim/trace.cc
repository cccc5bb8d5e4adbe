#include "sim/trace.h"

#include <cassert>
#include <limits>
#include <sstream>

#include "sim/json_util.h"
#include "sim/metrics.h"

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

Trace::Trace(int n_ranks, size_t capacity_per_rank)
    : capacity_(capacity_per_rank == 0 ? 1 : capacity_per_rank),
      rings_(static_cast<size_t>(n_ranks)) {
  assert(n_ranks >= 1);
  for (auto& ring : rings_) ring.buf.reserve(capacity_);
}

void Trace::record(int rank, const TraceEvent& ev) {
  Ring& ring = rings_.at(static_cast<size_t>(rank));
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(ev);
  } else {
    ring.buf[ring.next] = ev;  // overwrite the oldest retained event
  }
  ring.next = (ring.next + 1) % capacity_;
  ++ring.total;
}

std::vector<TraceEvent> Trace::events() const {
  std::vector<TraceEvent> out;
  size_t total = 0;
  for (const auto& ring : rings_) total += ring.buf.size();
  out.reserve(total);
  for (const auto& ring : rings_) {
    if (ring.buf.size() < capacity_) {
      out.insert(out.end(), ring.buf.begin(), ring.buf.end());
    } else {
      // Full ring: oldest event sits at the write cursor.
      out.insert(out.end(), ring.buf.begin() + static_cast<int64_t>(ring.next),
                 ring.buf.end());
      out.insert(out.end(), ring.buf.begin(),
                 ring.buf.begin() + static_cast<int64_t>(ring.next));
    }
  }
  return out;
}

uint64_t Trace::dropped() const {
  uint64_t dropped = 0;
  for (const auto& ring : rings_) dropped += ring.total - ring.buf.size();
  return dropped;
}

std::string run_result_json(const RunResult& r) {
  std::ostringstream os;
  // Round-trip precision: sub-microsecond phase sums must survive
  // serialization exactly, and precision(9) truncates doubles.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << '{';
  os << "\"model\":";
  append_escaped(os, r.model);
  os << ",\"compressor\":";
  append_escaped(os, r.compressor);
  os << ",\"topology\":";
  append_escaped(os, r.topology);
  os << ",\"quality_metric\":";
  append_escaped(os, r.quality_metric);
  os << ",\"phases\":{";
  os << "\"forward\":" << r.phases.forward_s
     << ",\"backward\":" << r.phases.backward_s
     << ",\"compress\":" << r.phases.compress_s
     << ",\"comm\":" << r.phases.comm_s
     << ",\"decompress\":" << r.phases.decompress_s
     << ",\"optimizer\":" << r.phases.optimizer_s
     << ",\"stall\":" << r.phases.stall_s << '}';
  os << ",\"iteration_seconds\":"
     << (r.iteration_s > 0.0 ? r.iteration_s : r.phases.total_s());
  os << ",\"additive_iteration_seconds\":" << r.phases.total_s();
  os << ",\"overlap_saved_seconds\":" << r.overlap_saved_s;
  os << ",\"overlap_fraction\":" << r.overlap_fraction;
  os << ",\"buckets_per_iter\":" << r.buckets_per_iter;
  os << ",\"wire_bytes_per_iter\":" << r.wire_bytes_per_iter;
  os << ",\"throughput\":" << r.throughput;
  os << ",\"total_sim_seconds\":" << r.total_sim_seconds;
  os << ",\"final_train_loss\":"
     << (r.epochs.empty() ? 0.0 : r.epochs.back().train_loss);
  os << ",\"final_quality\":" << r.final_quality;
  os << ",\"best_quality\":" << r.best_quality;
  os << ",\"samples_per_epoch\":" << r.samples_per_epoch;
  os << ",\"samples_dropped_per_epoch\":" << r.samples_dropped_per_epoch;
  os << ",\"comm_messages\":" << r.comm_messages;
  os << ",\"comm_payload_bytes\":" << r.comm_payload_bytes;
  os << ",\"model_parameters\":" << r.model_parameters;
  os << ",\"gradient_tensors\":" << r.gradient_tensors;
  os << ",\"replicas_in_sync\":" << (r.replicas_in_sync ? "true" : "false");
  os << ",\"parameters_crc32\":" << r.parameters_crc32;
  os << ",\"faults\":{";
  os << "\"attempts_staged\":" << r.faults.attempts_staged
     << ",\"drops_detected\":" << r.faults.drops_detected
     << ",\"corruptions_detected\":" << r.faults.corruptions_detected
     << ",\"retries\":" << r.faults.retries
     << ",\"retransmitted_bytes\":" << r.faults.retransmitted_bytes
     << ",\"retry_stall_seconds\":" << r.faults.retry_stall_s
     << ",\"straggler_events\":" << r.faults.straggler_events
     << ",\"straggler_stall_seconds\":" << r.faults.straggler_stall_s
     << ",\"rounds_skipped\":" << r.faults.rounds_skipped
     << ",\"crashed_ranks\":" << r.faults.crashed_ranks
     << ",\"degraded_iters\":" << r.faults.degraded_iters
     << ",\"leaves\":" << r.faults.leaves
     << ",\"joins\":" << r.faults.joins
     << ",\"sat_out_rounds\":" << r.faults.sat_out_rounds
     << ",\"outages\":" << r.faults.outages
     << ",\"outage_stall_seconds\":" << r.faults.outage_stall_s << '}';
  os << ",\"trace_events_dropped\":" << r.trace_events_dropped;
  os << ",\"tensors\":[";
  for (size_t i = 0; i < r.tensor_trace.size(); ++i) {
    const TensorTraceSummary& t = r.tensor_trace[i];
    if (i) os << ',';
    os << "{\"name\":";
    append_escaped(os, t.name);
    os << ",\"numel\":" << t.numel << ",\"exchanges\":" << t.exchanges
       << ",\"compress_seconds\":" << t.compress_s
       << ",\"comm_seconds\":" << t.comm_s
       << ",\"decompress_seconds\":" << t.decompress_s
       << ",\"wire_bytes\":" << t.wire_bytes << '}';
  }
  os << ']';
  os << ",\"fidelity\":" << fidelity_summaries_json(r.fidelity);
  os << ",\"metrics\":"
     << metrics_json(r.metric_counters, r.metric_histograms);
  os << ",\"control\":" << control::control_summary_json(r.control);
  os << '}';
  return os.str();
}

}  // namespace grace::sim
