// Factories for all implemented compression methods (Table I of the paper).
// Parameters follow the conventions the paper's evaluation uses, e.g.
// Randk(0.01), QSGD(64), SketchML(64), PowerSGD(rank).
#pragma once

#include <memory>

#include "core/compressor.h"

namespace grace::core::compressors {

// Baseline (no compression); rides Allreduce.
std::unique_ptr<Compressor> make_none();

// Quantization.
std::unique_ptr<Compressor> make_eightbit();                   // Dettmers '16
std::unique_ptr<Compressor> make_onebit();                     // Seide '14
std::unique_ptr<Compressor> make_signsgd();                    // Bernstein '18
std::unique_ptr<Compressor> make_signum(double beta = 0.9);    // Bernstein '19
std::unique_ptr<Compressor> make_qsgd(int levels = 64);        // Alistarh '17
std::unique_ptr<Compressor> make_natural();                    // Horvath '19
std::unique_ptr<Compressor> make_terngrad();                   // Wen '17
std::unique_ptr<Compressor> make_efsignsgd();                  // Karimireddy '19
std::unique_ptr<Compressor> make_inceptionn();                 // Li '18

// Sparsification.
std::unique_ptr<Compressor> make_randomk(double ratio = 0.01,
                                         bool unbiased = false);  // Stich '18
std::unique_ptr<Compressor> make_topk(double ratio = 0.01);       // Aji '17
std::unique_ptr<Compressor> make_thresholdv(double v = 0.01);     // Dutta '20
std::unique_ptr<Compressor> make_dgc(double ratio = 0.01,
                                     double momentum = 0.9);      // Lin '18

// Hybrid.
std::unique_ptr<Compressor> make_adaptive(double ratio = 0.01);   // Dryden '16
std::unique_ptr<Compressor> make_sketchml(int buckets = 64);      // Jiang '18

// Low-rank.
std::unique_ptr<Compressor> make_powersgd(int rank = 4);          // Vogels '19

// ---------------------------------------------------------------------
// Extensions: methods Table I surveys but the paper does not implement.
// ---------------------------------------------------------------------
std::unique_ptr<Compressor> make_lpcsvrg(int bits = 4);           // Yu '19
std::unique_ptr<Compressor> make_wangni(double ratio = 0.01);     // Wangni '18
std::unique_ptr<Compressor> make_threelc(double s = 1.0);         // Lim '19
std::unique_ptr<Compressor> make_sketchedsgd(int rows = 5,
                                             double col_ratio = 0.05,
                                             double k_ratio = 0.01);  // Ivkin '19
std::unique_ptr<Compressor> make_atomo(int max_rank = 4,
                                       double budget_factor = 0.75);  // Wang '18
std::unique_ptr<Compressor> make_qsparselocal(double ratio = 0.01,
                                              int bits = 4);      // Basu '19
std::unique_ptr<Compressor> make_varbased(double lambda = 1.0);   // Tsuzuku '18
std::unique_ptr<Compressor> make_gradiveq(int rank = 4,
                                          int refresh_every = 10);  // Yu '18
std::unique_ptr<Compressor> make_gradzip(int rank = 4,
                                         double mu = 1e-3);       // Cho '19

}  // namespace grace::core::compressors
