// Compression-fidelity benchmark: sweeps the Table I roster with the
// CompressionFidelityProbe and MetricRegistry attached and reports, per
// compressor, the achieved wire ratio next to what that ratio *costs* in
// gradient fidelity — relative L2 reconstruction error, cosine similarity,
// sign agreement and the error-feedback residual the memory carries. This
// is the measurement behind the paper's Figures 6-8 quality/ratio
// trade-off: ratio alone is a misleading utility signal, per-tensor
// fidelity is what predicts end-to-end usefulness.
//
// Sparsifiers run twice, with raw 32-bit indices and with the lossless
// Rice wire stage (core/index_coding.h: delta + Golomb-Rice codes, the
// related-work direction of Gajjala and DeepReduce); the `lossless` column
// is the ratio that stage adds on top of the lossy one (TopK(0.01): ~1.6x).
//
// Prints a table and writes BENCH_fidelity.json (schema in
// docs/OBSERVABILITY.md).
//
// GRACE_SCALE=<f> (default 1.0) scales the task size for smoke runs.
// --faults=<plan.json> runs the sweep under a deterministic fault plan
// (docs/RESILIENCE.md) — fidelity under packet loss and corruption.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/context.h"
#include "sim/fidelity.h"
#include "sim/metric_registry.h"
#include "sim/tasks.h"
#include "sim/trace.h"

int main(int argc, char** argv) {
  using namespace grace;

  const char* plan_path = bench::fault_plan_arg(argc, argv, "bench_fidelity");
  faults::FaultPlan plan;
  if (plan_path != nullptr) {
    plan = faults::FaultPlan(bench::load_fault_spec(plan_path));
    std::printf("fault plan: %s\n", faults::fault_spec_json(plan.spec()).c_str());
  }

  const double scale = bench::scale_from_env();

  // A Table I cross-section: quantizers (1-bit through 8-bit, stochastic
  // and deterministic), sparsifiers (top-k family), the EF-centric method
  // and a low-rank method. Sparsifiers run twice — raw-index wire and with
  // the lossless Rice wire stage — so the JSON lands the lossy x lossless
  // achieved ratio side by side.
  struct Run {
    std::string spec;
    core::WireCodec wire_codec = core::WireCodec::None;
  };
  const std::vector<Run> compressors = {
      {"eightbit"},      {"onebit"},
      {"signsgd"},       {"qsgd(64)"},
      {"terngrad"},      {"natural"},
      {"topk(0.01)"},    {"topk(0.01)", core::WireCodec::Rice},
      {"randomk(0.01)"}, {"randomk(0.01)", core::WireCodec::Rice},
      {"dgc(0.01)"},     {"dgc(0.01)", core::WireCodec::Rice},
      {"efsignsgd"},     {"powersgd(4)"}};

  sim::Benchmark bench = sim::make_cnn_classification(scale * 0.3);

  std::printf("Compression fidelity: %s, %s — what the wire ratio costs\n\n",
              bench.model.c_str(), bench.dataset.c_str());
  std::printf("%-22s %-22s %9s %9s %9s %9s %9s %9s %9s\n", "compressor",
              "tensor", "ratio", "lossless", "rel_err", "cosine", "sign_agr",
              "resid_l2", "p99_cmp_us");
  bench::print_rule(116);

  std::string json;
  bench::appendf(json,
                 "{\"benchmark\":\"fidelity\",\"scale\":%g,\"runs\":[",
                 scale);
  bool first = true;
  for (const Run& r : compressors) {
    const std::string& spec = r.spec;
    sim::TrainConfig cfg = sim::default_config(bench);
    cfg.grace.compressor_spec = spec;
    cfg.grace.wire_codec = r.wire_codec;
    bench::apply_paper_overrides(spec, cfg, /*classification_task=*/true);

    sim::CompressionFidelityProbe probe(cfg.n_workers);
    sim::MetricRegistry registry(cfg.n_workers);
    cfg.fidelity = &probe;
    cfg.metrics = &registry;
    if (plan_path != nullptr) cfg.faults = &plan;
    sim::RunResult run = sim::train(bench.factory, cfg);

    double p99_compress_us = 0.0;
    for (const auto& h : run.metric_histograms) {
      if (h.name == "exchange.compress_ns") p99_compress_us = h.percentile(0.99) * 1e-3;
    }
    std::string label = spec;
    if (r.wire_codec != core::WireCodec::None) {
      label += "+";
      label += core::wire_codec_name(r.wire_codec);
    }
    for (const auto& t : run.fidelity) {
      std::printf("%-22s %-22s %9.2f %9.2f %9.4f %9.4f %9.4f %9.2e %9.2f\n",
                  label.c_str(), t.name.c_str(), t.compression_ratio,
                  t.lossless_ratio, t.l2_rel_error, t.cosine_similarity,
                  t.sign_agreement, t.residual_l2, p99_compress_us);
    }
    bench::print_rule(116);

    if (!first) json += ",";
    first = false;
    bench::appendf(json,
                   "{\"compressor\":\"%s\",\"wire_codec\":\"%s\",\"result\":%s}",
                   spec.c_str(), core::wire_codec_name(r.wire_codec),
                   sim::run_result_json(run).c_str());
  }
  json += "]}\n";

  std::printf(
      "\nHigh ratio with high cosine/sign-agreement is the paper's sweet\n"
      "spot; high ratio with high rel_err is where quality collapses\n"
      "(Figs. 6-8). resid_l2 > 0 marks methods whose error feedback is\n"
      "carrying the dropped mass forward.\n\n");
  return bench::write_bench_json("fidelity", json) ? 0 : 1;
}
