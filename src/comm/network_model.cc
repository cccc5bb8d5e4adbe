#include "comm/network_model.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace grace::comm {

double NetworkModel::effective_bytes_per_sec() const {
  // TCP loses ~30% of nominal link rate to protocol overhead at these MTUs
  // (matches the gap commonly observed between iperf and line rate); RDMA
  // sustains ~92%.
  const double efficiency = transport == Transport::Tcp ? 0.70 : 0.92;
  return bandwidth_gbps * 1e9 / 8.0 * efficiency;
}

double NetworkModel::per_message_overhead_sec() const {
  // Kernel TCP: syscall + softirq path per message. RDMA: posted verbs.
  return transport == Transport::Tcp ? 20e-6 : 3e-6;
}

double NetworkModel::parameter_server_seconds(size_t total_upload_bytes,
                                              size_t download_bytes) const {
  if (n_workers <= 1) return 0.0;
  const double n = n_workers;
  const double up = static_cast<double>(total_upload_bytes) / effective_bytes_per_sec();
  const double down =
      static_cast<double>(download_bytes) * (n - 1.0) / effective_bytes_per_sec();
  return up + down + 2.0 * latency_us * 1e-6 +
         2.0 * (n - 1.0) * per_message_overhead_sec();
}

double NetworkModel::retransmit_seconds(size_t bytes) const {
  return static_cast<double>(bytes) / effective_bytes_per_sec() +
         2.0 * latency_us * 1e-6 + 2.0 * per_message_overhead_sec();
}

void NetworkModel::validate() const {
  if (n_workers < 1) {
    throw std::invalid_argument("NetworkModel: n_workers must be >= 1, got " +
                                std::to_string(n_workers));
  }
  if (!(bandwidth_gbps > 0.0) || !std::isfinite(bandwidth_gbps)) {
    throw std::invalid_argument(
        "NetworkModel: bandwidth_gbps must be finite and > 0, got " +
        std::to_string(bandwidth_gbps));
  }
  if (!(latency_us >= 0.0) || !std::isfinite(latency_us)) {
    throw std::invalid_argument(
        "NetworkModel: latency_us must be finite and >= 0, got " +
        std::to_string(latency_us));
  }
}

std::string transport_name(Transport t) {
  return t == Transport::Tcp ? "TCP" : "RDMA";
}

}  // namespace grace::comm
