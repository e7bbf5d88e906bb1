#include "algos/spmv.hpp"

#include <stdexcept>

#include "algos/primitives.hpp"

namespace dxbsp::algos {

std::vector<double> spmv(Vm& vm, const workload::CsrMatrix& a,
                         const std::vector<double>& x, SpmvStats* stats) {
  a.validate();
  if (x.size() != a.cols)
    throw std::invalid_argument("spmv: x dimension mismatch");

  const std::uint64_t nnz = a.nnz();

  // Simulated residency: the input vector, the value array, the product
  // array and the output vector.
  auto xv = vm.make_array<double>(a.cols);
  xv.data = x;
  auto values = vm.make_array<double>(nnz);
  values.data = a.values;
  auto products = vm.make_array<double>(nnz);
  auto yv = vm.make_array<double>(a.rows);

  // (1) Gather x[col] for every nonzero — the contention-carrying step.
  std::vector<double> xc;
  vm.gather(xc, xv, a.col_idx, "spmv-gather-x");
  const std::uint64_t gather_contention = vm.last_contention(nnz);

  // (2) Elementwise multiply (stream read of values, write of products).
  for (std::uint64_t i = 0; i < nnz; ++i)
    products.data[i] = a.values[i] * xc[i];
  vm.contiguous(values.region, nnz, 2.0, "spmv-multiply");
  vm.compute(nnz, 1.0, "spmv-multiply");

  // (3) Segmented sum per row ([BHZ93] segmented-scan formulation).
  std::vector<double> y = segmented_sum(vm, products, a.row_ptr, "spmv-segsum");

  // (4) Write y (contiguous).
  yv.data = y;
  vm.contiguous(yv.region, a.rows, 1.0, "spmv-write-y");

  if (stats != nullptr) {
    stats->nnz = nnz;
    stats->gather_contention = gather_contention;
  }
  return y;
}

}  // namespace dxbsp::algos
