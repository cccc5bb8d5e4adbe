#include "sim/fidelity.h"

#include <cassert>
#include <limits>
#include <sstream>

#include "util/json.h"

namespace grace::sim {

CompressionFidelityProbe::CompressionFidelityProbe(int n_ranks)
    : ranks_(static_cast<size_t>(n_ranks)) {
  assert(n_ranks >= 1);
}

void CompressionFidelityProbe::on_sample(const core::FidelitySample& s) {
  RankSlot& slot = ranks_.at(static_cast<size_t>(s.rank));
  Accum* acc = nullptr;
  for (Accum& a : slot.tensors) {
    if (a.name == s.tensor) {
      acc = &a;
      break;
    }
  }
  if (!acc) {
    slot.tensors.push_back(Accum{});
    acc = &slot.tensors.back();
    acc->name = s.tensor;
    acc->numel = s.numel;
  }
  ++acc->samples;
  acc->dense_bits += s.dense_bits;
  acc->wire_bits += s.wire_bits;
  acc->raw_wire_bits += s.raw_wire_bits > 0 ? s.raw_wire_bits : s.wire_bits;
  acc->l2_rel_error += s.l2_rel_error;
  acc->cosine_similarity += s.cosine_similarity;
  acc->sign_agreement += s.sign_agreement;
  acc->grad_l2 += s.grad_l2;
  acc->residual_l2 += s.residual_l2;
}

CompressionFidelityProbe::Totals CompressionFidelityProbe::totals(
    int rank, const std::string& name) const {
  for (const Accum& a : ranks_.at(static_cast<size_t>(rank)).tensors) {
    if (a.name == name) return {a.samples, a.cosine_similarity};
  }
  return {};
}

std::vector<TensorFidelitySummary> CompressionFidelityProbe::summaries() const {
  // Fold ranks in ascending order onto rank 0's tensor order; every rank
  // exchanges the same tensors in the same order, so lookups by name only
  // matter for runs where some rank was never sampled.
  std::vector<Accum> merged;
  for (const RankSlot& slot : ranks_) {
    for (const Accum& a : slot.tensors) {
      Accum* into = nullptr;
      for (Accum& m : merged) {
        if (m.name == a.name) {
          into = &m;
          break;
        }
      }
      if (!into) {
        merged.push_back(Accum{});
        into = &merged.back();
        into->name = a.name;
        into->numel = a.numel;
      }
      into->samples += a.samples;
      into->dense_bits += a.dense_bits;
      into->wire_bits += a.wire_bits;
      into->raw_wire_bits += a.raw_wire_bits;
      into->l2_rel_error += a.l2_rel_error;
      into->cosine_similarity += a.cosine_similarity;
      into->sign_agreement += a.sign_agreement;
      into->grad_l2 += a.grad_l2;
      into->residual_l2 += a.residual_l2;
    }
  }

  std::vector<TensorFidelitySummary> out;
  out.reserve(merged.size());
  for (const Accum& m : merged) {
    TensorFidelitySummary s;
    s.name = m.name;
    s.numel = m.numel;
    s.samples = m.samples;
    const double k = m.samples > 0 ? static_cast<double>(m.samples) : 1.0;
    s.compression_ratio = m.wire_bits > 0
                              ? static_cast<double>(m.dense_bits) /
                                    static_cast<double>(m.wire_bits)
                              : 0.0;
    s.mean_wire_bits = static_cast<double>(m.wire_bits) / k;
    s.lossless_ratio = m.wire_bits > 0
                           ? static_cast<double>(m.raw_wire_bits) /
                                 static_cast<double>(m.wire_bits)
                           : 1.0;
    s.l2_rel_error = m.l2_rel_error / k;
    s.cosine_similarity = m.cosine_similarity / k;
    s.sign_agreement = m.sign_agreement / k;
    s.grad_l2 = m.grad_l2 / k;
    s.residual_l2 = m.residual_l2 / k;
    out.push_back(std::move(s));
  }
  return out;
}

std::string fidelity_summaries_json(
    const std::vector<TensorFidelitySummary>& summaries) {
  using util::json::Number;
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << '[';
  for (size_t i = 0; i < summaries.size(); ++i) {
    const TensorFidelitySummary& s = summaries[i];
    if (i) os << ',';
    os << "{\"name\":";
    util::json::append_escaped(os, s.name);
    os << ",\"numel\":" << s.numel << ",\"samples\":" << s.samples
       << ",\"compression_ratio\":" << Number{s.compression_ratio}
       << ",\"mean_wire_bits\":" << Number{s.mean_wire_bits}
       << ",\"lossless_ratio\":" << Number{s.lossless_ratio}
       << ",\"l2_rel_error\":" << Number{s.l2_rel_error}
       << ",\"cosine_similarity\":" << Number{s.cosine_similarity}
       << ",\"sign_agreement\":" << Number{s.sign_agreement}
       << ",\"grad_l2\":" << Number{s.grad_l2}
       << ",\"residual_l2\":" << Number{s.residual_l2} << '}';
  }
  os << ']';
  return os.str();
}

}  // namespace grace::sim
