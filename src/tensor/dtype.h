// Element types supported by the tensor library. F32 carries model data and
// gradients; I32 carries sparse indices; U8 carries bit-packed wire payloads.
#pragma once

#include <cstddef>

namespace grace {

enum class DType { F32, I32, U8 };

inline size_t dtype_size(DType t) {
  switch (t) {
    case DType::F32: return 4;
    case DType::I32: return 4;
    case DType::U8: return 1;
  }
  return 0;
}

}  // namespace grace
