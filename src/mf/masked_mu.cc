#include "src/mf/masked_mu.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/common/parallel.h"
#include "src/la/simd.h"

namespace smfl::mf {

using la::Index;
using la::Matrix;

namespace {

// Rows per chunk of the U side, output columns per chunk of the V side.
// Every element is computed whole inside one chunk, so the partition only
// moves wall-clock, never a bit of the result.
constexpr Index kRowGrain = 64;
constexpr Index kColGrain = 1;
// The objective's chunking fixes its summation order: the grain of
// data::MaskedSquaredError.
constexpr Index kErrorRowGrain = 64;

bool Active(const GraphTerm& g) { return g.graph != nullptr && g.lambda > 0.0; }

}  // namespace

MaskedMuEngine::MaskedMuEngine(data::ObservedIndex omega, Index col_begin)
    : omega_(std::move(omega)), col_begin_(col_begin) {
  SMFL_CHECK(omega_.HasValues() || omega_.Count() == 0);
  SMFL_CHECK(col_begin_ >= 0 && col_begin_ <= omega_.cols());
  // Counting sort of the free-column entries; the row-major fill keeps
  // rows ascending within each column.
  col_ptr_.assign(static_cast<size_t>(omega_.cols() - col_begin_) + 1, 0);
  for (Index i = 0; i < omega_.rows(); ++i) {
    for (const Index j : omega_.RowCols(i)) {
      if (j >= col_begin_) ++col_ptr_[static_cast<size_t>(j - col_begin_) + 1];
    }
  }
  for (size_t c = 1; c < col_ptr_.size(); ++c) col_ptr_[c] += col_ptr_[c - 1];
  col_entries_.resize(static_cast<size_t>(col_ptr_.back()));
  std::vector<Index> next(col_ptr_.begin(), col_ptr_.end() - 1);
  for (Index i = 0; i < omega_.rows(); ++i) {
    const std::span<const Index> cols = omega_.RowCols(i);
    const std::span<const double> vals = omega_.RowValues(i);
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c] < col_begin_) continue;
      Index& slot = next[static_cast<size_t>(cols[c] - col_begin_)];
      col_entries_[static_cast<size_t>(slot++)] = {i, vals[c]};
    }
  }
  uv_.assign(static_cast<size_t>(omega_.Count()), 0.0);
}

void MaskedMuEngine::Reconstruct(const Matrix& u, const Matrix& v) {
  data::MaskedReconstructPacked(u, v, omega_, uv_);
}

double MaskedMuEngine::SquaredError() const {
  return parallel::ParallelReduce(
      0, omega_.rows(), kErrorRowGrain, [&](Index r0, Index r1) {
        double acc = 0.0;
        for (Index i = r0; i < r1; ++i) {
          const std::span<const double> x = omega_.RowValues(i);
          if (x.empty()) continue;
          const double* uv = uv_.data() + omega_.RowBegin(i);
          double row = 0.0;
          for (size_t c = 0; c < x.size(); ++c) {
            const double d = x[c] - uv[c];
            row += d * d;
          }
          acc += row;
        }
        return acc;
      });
}

template <typename RowFn>
void MaskedMuEngine::ForEachURow(const Matrix& v, bool residual,
                                 RowFn&& fn) const {
  SMFL_CHECK_EQ(v.cols(), omega_.cols());
  const Index k = v.rows(), m = v.cols();
  // Vᵀ: the K factors of each column of V contiguous.
  std::vector<double> vt(static_cast<size_t>(k * m));
  for (Index p = 0; p < k; ++p) {
    for (Index j = 0; j < m; ++j) vt[static_cast<size_t>(j * k + p)] = v(p, j);
  }
  // Resolved on the calling thread so a ScopedSimd override reaches the
  // pool workers (simd.h, dispatch resolution).
  const la::simd::Kernels& ker = la::simd::Active();
  parallel::ParallelFor(0, omega_.rows(), kRowGrain, [&](Index r0, Index r1) {
    std::vector<double> a(static_cast<size_t>(k)), b(static_cast<size_t>(k));
    for (Index i = r0; i < r1; ++i) {
      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      const std::span<const Index> cols = omega_.RowCols(i);
      const std::span<const double> x = omega_.RowValues(i);
      const double* uv = uv_.data() + omega_.RowBegin(i);
      for (size_t c = 0; c < cols.size(); ++c) {
        const double* vj = vt.data() + cols[c] * k;
        if (residual) {
          ker.axpy(k, x[c] - uv[c], vj, a.data());
        } else {
          ker.axpy(k, x[c], vj, a.data());
          ker.axpy(k, uv[c], vj, b.data());
        }
      }
      fn(i, a.data(), b.data());
    }
  });
}

template <typename ColFn>
void MaskedMuEngine::ForEachVColumn(const Matrix& u, const Matrix& v,
                                    ColFn&& fn) const {
  SMFL_CHECK_EQ(u.rows(), omega_.rows());
  SMFL_CHECK_EQ(v.cols(), omega_.cols());
  const Index k = u.cols();
  const la::simd::Kernels& ker = la::simd::Active();
  parallel::ParallelFor(col_begin_, v.cols(), kColGrain, [&](Index c0,
                                                             Index c1) {
    std::vector<double> vj(static_cast<size_t>(k));
    std::vector<double> a(static_cast<size_t>(k)), b(static_cast<size_t>(k));
    for (Index j = c0; j < c1; ++j) {
      for (Index p = 0; p < k; ++p) vj[static_cast<size_t>(p)] = v(p, j);
      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      const auto slot = static_cast<size_t>(j - col_begin_);
      for (Index e = col_ptr_[slot]; e < col_ptr_[slot + 1]; ++e) {
        const ColumnEntry& entry = col_entries_[static_cast<size_t>(e)];
        const double* urow = u.data() + entry.row * k;
        // (UV)_ij: the ascending-p chain, zero-skip on u included, of
        // data::MaskedReconstruct.
        double uv = 0.0;
        for (Index p = 0; p < k; ++p) {
          // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
          if (urow[p] == 0.0) continue;
          uv += urow[p] * vj[static_cast<size_t>(p)];
        }
        ker.axpy(k, entry.x, urow, a.data());
        ker.axpy(k, uv, urow, b.data());
      }
      fn(j, a.data(), b.data());
    }
  });
}

void MaskedMuEngine::UpdateUMultiplicative(const GraphTerm& graph,
                                           double div_eps, Matrix& u,
                                           const Matrix& v) const {
  const bool with_graph = Active(graph);
  Matrix du, wu;
  if (with_graph) {
    du = graph.graph->MultiplyD(u);
    wu = graph.graph->MultiplyW(u);
  }
  ForEachURow(v, /*residual=*/false, [&](Index i, double* num, double* den) {
    for (Index p = 0; p < u.cols(); ++p) {
      if (with_graph) {
        num[p] += du(i, p) * graph.lambda;
        den[p] += wu(i, p) * graph.lambda;
      }
      u(i, p) *= num[p] / std::max(den[p], div_eps);
    }
  });
}

void MaskedMuEngine::UpdateVMultiplicative(const Matrix& u, double div_eps,
                                           Matrix& v) const {
  ForEachVColumn(u, v, [&](Index j, const double* num, const double* den) {
    for (Index p = 0; p < v.rows(); ++p) {
      v(p, j) *= num[p] / std::max(den[p], div_eps);
    }
  });
}

void MaskedMuEngine::UpdateUGradient(const GraphTerm& graph, double theta,
                                     Matrix& u, const Matrix& v) const {
  const bool with_graph = Active(graph);
  Matrix lu;  // λ L U = λ (W U − D U), from the incoming U
  if (with_graph) {
    lu = graph.graph->MultiplyW(u);
    lu -= graph.graph->MultiplyD(u);
    lu *= graph.lambda;
  }
  const double step = 2.0 * theta;
  ForEachURow(v, /*residual=*/true, [&](Index i, double* grad, double*) {
    for (Index p = 0; p < u.cols(); ++p) {
      if (with_graph) grad[p] -= lu(i, p);
      grad[p] *= step;
      u(i, p) = std::max(u(i, p) + grad[p], 0.0);
    }
  });
}

void MaskedMuEngine::UpdateVGradient(const Matrix& u, double delta,
                                     Matrix& v) const {
  ForEachVColumn(u, v, [&](Index j, const double* num, const double* den) {
    for (Index p = 0; p < v.rows(); ++p) {
      const double g = 2.0 * delta * (num[p] - den[p]);
      v(p, j) = std::max(0.0, v(p, j) + g);
    }
  });
}

}  // namespace smfl::mf
