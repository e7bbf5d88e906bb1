#pragma once
// Readable gtest output for core::Prediction comparisons: field names
// instead of a byte dump.

#include <ostream>

#include "core/predictor.hpp"

namespace dxbsp::core {

inline void PrintTo(const Prediction& p, std::ostream* os) {
  const AccessProfile& a = p.profile;
  *os << "{bsp=" << p.bsp << " dxbsp_location=" << p.dxbsp_location
      << " dxbsp_mapped=" << p.dxbsp_mapped << " n=" << a.n
      << " h_proc=" << a.h_proc << " k=" << a.max_contention
      << " distinct=" << a.distinct << " h_bank_location=" << a.h_bank_location
      << " h_bank_mapped=" << a.h_bank_mapped << "}";
}

}  // namespace dxbsp::core
