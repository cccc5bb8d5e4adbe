// Simulated-time model arithmetic.
#include <gtest/gtest.h>

#include "sim/time_model.h"

namespace grace::sim {
namespace {

TEST(TimeModel, ComputeSecondsFormula) {
  // 1 MFLOP forward x (1 + 2) x batch 10 / 4 GFLOP/s = 7.5 ms.
  EXPECT_DOUBLE_EQ(TimeModel::compute_seconds(1e6, 10), 7.5e-3);
}

TEST(TimeModel, ZeroBatchIsFree) {
  EXPECT_DOUBLE_EQ(TimeModel::compute_seconds(1e6, 0), 0.0);
}

}  // namespace
}  // namespace grace::sim
