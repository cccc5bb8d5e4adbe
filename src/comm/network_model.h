// Alpha-beta cost model for the simulated cluster network.
//
// The in-process collectives are executed for real (correct aggregation);
// this model supplies the links of the paper's testbed those collectives
// are priced over (comm/topology.h prices the dense sums and gathers): n
// workers connected by point-to-point links of a given bandwidth, using
// either kernel TCP or RDMA transports. Per-message software overhead and
// payload efficiency differ by transport, which is what makes RDMA
// consistently faster in Figure 9 even at equal link speed.
#pragma once

#include <cstddef>
#include <string>

namespace grace::comm {

enum class Transport { Tcp, Rdma };

struct NetworkModel {
  int n_workers = 8;
  double bandwidth_gbps = 10.0;  // per-link, each direction
  Transport transport = Transport::Tcp;
  double latency_us = 10.0;      // one-way propagation + switching

  // Effective payload bytes/second after transport efficiency.
  double effective_bytes_per_sec() const;
  // Fixed software cost charged per message (syscalls, interrupts for TCP;
  // doorbell + completion for RDMA).
  double per_message_overhead_sec() const;

  // Parameter-server round: the server's link absorbs every worker's
  // compressed upload, then pushes the (dense) aggregate back to n-1
  // workers. The server link is the bottleneck on both phases.
  double parameter_server_seconds(size_t total_upload_bytes,
                                  size_t download_bytes) const;
  // One point-to-point retransmission of a `bytes` payload, the NACK path
  // of the fault-injection subsystem (docs/RESILIENCE.md): the negative
  // acknowledgement travels back to the sender, then the payload crosses
  // the link again — two message overheads, two one-way latencies, one
  // payload transmission.
  double retransmit_seconds(size_t bytes) const;

  // Throws std::invalid_argument when the parameters cannot price a run:
  // n_workers < 1, bandwidth_gbps <= 0 or non-finite, latency_us < 0 or
  // non-finite. Without this, bandwidth_gbps == 0 makes
  // effective_bytes_per_sec() return 0 and every *_seconds() above return
  // inf/NaN that propagates silently into BENCH_*.json. Called by the
  // trainer, the simulated world, and make_topology before any pricing.
  void validate() const;
};

std::string transport_name(Transport t);

}  // namespace grace::comm
