#include "workloads.h"

#include <cmath>
#include <limits>

namespace hostbench {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      // Compute-bound: conv/GEMM dominates, the 10k-parameter gradient
      // leaves the codec and the collectives nearly idle.
      {.name = "cnn-topk",
       .make_task = grace::sim::make_cnn_classification,
       .compressor = "topk(0.01)",
       .comm_messages = 2328,
       .comm_payload_bytes = 523032,
       .reference_loss = 3.9698,
       .loss_tolerance = 0.15},
      // Comm-bound: dense 670 KB/iteration ring allreduces and Adam over
      // 171k parameters; no codec work.
      {.name = "ncf-dense",
       .make_task = grace::sim::make_ncf_recommendation,
       .compressor = "none",
       .comm_messages = 26904,
       .comm_payload_bytes = 576740664,
       .reference_loss = 0.46488,
       .loss_tolerance = 0.04},
      // Codec-bound: quantize/pack, 4x dequantize, and allgathers of
      // serialized U8 blobs instead of an in-place float ring.
      {.name = "mlp-qsgd",
       .make_task = grace::sim::make_mlp_classification,
       .compressor = "qsgd(64)",
       .comm_messages = 2328,
       .comm_payload_bytes = 114769176,
       .reference_loss = 2.2185,
       .loss_tolerance = 0.10},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Task build_task(const WorkloadSpec& w, uint64_t seed, double scale) {
  using namespace grace;
  Task t;
  t.bench = w.make_task(scale);
  t.cfg = sim::default_config(t.bench);
  t.cfg.n_workers = 4;
  t.cfg.net.n_workers = 4;
  t.cfg.batch_per_worker = 8;  // global batch 32
  t.cfg.net.bandwidth_gbps = 10.0;
  t.cfg.net.transport = comm::Transport::Tcp;
  t.cfg.fusion_bytes = 0;
  t.cfg.time.overlap = false;
  // One epoch per call: more calls per run, and the first epoch's loss
  // varies far less between seeds than later epochs' (which approach 0).
  t.cfg.epochs = 1;
  t.cfg.grace.compressor_spec = w.compressor;
  t.cfg.seed = seed;
  return t;
}

double final_train_loss(const grace::sim::RunResult& r) {
  if (r.epochs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return r.epochs.back().train_loss;
}

bool loss_within_reference(double loss, const WorkloadSpec& w) {
  return std::isfinite(loss) &&
         std::fabs(loss - w.reference_loss) <=
             w.loss_tolerance * w.reference_loss;
}

std::string check_run(const grace::sim::RunResult& r, const WorkloadSpec& w,
                      uint32_t expected_crc32) {
  if (!r.replicas_in_sync) return "replicas out of sync";
  const double loss = final_train_loss(r);
  if (!std::isfinite(loss)) return "non-finite training loss";
  if (r.parameters_crc32 != expected_crc32) {
    return "parameters_crc32 differs from the other repetitions";
  }
  if (r.comm_messages != w.comm_messages ||
      r.comm_payload_bytes != w.comm_payload_bytes) {
    return "transport counts " + std::to_string(r.comm_messages) + " msgs / " +
           std::to_string(r.comm_payload_bytes) + " B differ from the " +
           "committed " + std::to_string(w.comm_messages) + " / " +
           std::to_string(w.comm_payload_bytes);
  }
  return "";
}

}  // namespace hostbench
