#include "src/data/mask.h"

#include <algorithm>
#include <span>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/data/observed_index.h"
#include "src/la/simd.h"

namespace smfl::data {

Index Mask::Count() const {
  Index n = 0;
  for (uint8_t b : bits_) n += b;
  return n;
}

Index Mask::RowCount(Index i) const {
  const uint8_t* row = RowData(i);
  Index n = 0;
  for (Index j = 0; j < cols_; ++j) n += row[j];
  return n;
}

Mask Mask::Complement() const {
  Mask out(rows_, cols_);
  for (size_t i = 0; i < bits_.size(); ++i) out.bits_[i] = bits_[i] ? 0 : 1;
  return out;
}

std::vector<Entry> Mask::Entries() const {
  std::vector<Entry> out;
  out.reserve(static_cast<size_t>(Count()));
  for (Index i = 0; i < rows_; ++i) {
    for (Index j = 0; j < cols_; ++j) {
      if (Contains(i, j)) out.push_back({i, j});
    }
  }
  return out;
}

bool Mask::RowFullySet(Index i) const {
  for (Index j = 0; j < cols_; ++j) {
    if (!Contains(i, j)) return false;
  }
  return true;
}

std::vector<Index> Mask::FullySetRows() const {
  std::vector<Index> out;
  for (Index i = 0; i < rows_; ++i) {
    if (RowFullySet(i)) out.push_back(i);
  }
  return out;
}

Mask Mask::And(const Mask& other) const {
  SMFL_CHECK(SameShape(other));
  Mask out(rows_, cols_);
  for (size_t i = 0; i < bits_.size(); ++i) {
    out.bits_[i] = (bits_[i] && other.bits_[i]) ? 1 : 0;
  }
  return out;
}

Mask Mask::Or(const Mask& other) const {
  SMFL_CHECK(SameShape(other));
  Mask out(rows_, cols_);
  for (size_t i = 0; i < bits_.size(); ++i) {
    out.bits_[i] = (bits_[i] || other.bits_[i]) ? 1 : 0;
  }
  return out;
}

Matrix ApplyMask(const Matrix& x, const Mask& mask) {
  SMFL_CHECK_EQ(x.rows(), mask.rows());
  SMFL_CHECK_EQ(x.cols(), mask.cols());
  Matrix out(x.rows(), x.cols());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      if (mask.Contains(i, j)) out(i, j) = x(i, j);
    }
  }
  return out;
}

Matrix CombineByMask(const Matrix& x, const Matrix& x_star, const Mask& mask) {
  SMFL_CHECK(x.SameShape(x_star));
  SMFL_CHECK_EQ(x.rows(), mask.rows());
  SMFL_CHECK_EQ(x.cols(), mask.cols());
  Matrix out(x.rows(), x.cols());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      out(i, j) = mask.Contains(i, j) ? x(i, j) : x_star(i, j);
    }
  }
  return out;
}

namespace {

// One row of R_Ω(UV) into `orow` (m wide), given its observed columns.
// Dense rows (past the tier's measured crossover — simd.h) stream the rows
// of V in ascending-k order into the zeroed row, the per-element summation
// order of la::MatMul with its zero-skip; sparse rows run the per-entry
// dots of masked_dot_cols. Both build every observed entry with the
// identical mul/add chain, so the crossover never changes a bit of the
// result; only the observed entries of `orow` are meaningful afterwards.
// Returns true when the dense path ran (for the dispatch counters).
inline bool ReconstructRowForCols(const la::simd::Kernels& ker, Index k,
                                  Index m, const double* urow,
                                  const double* vd, const Index* cols,
                                  Index observed, double* orow) {
  if (observed * ker.dense_crossover >= m) {
    std::fill(orow, orow + m, 0.0);
    for (Index p = 0; p < k; ++p) {
      const double uv = urow[p];
      // smfl-lint: allow(float-eq) exact zero-skip: 0.0 adds nothing
      if (uv == 0.0) continue;
      ker.axpy(m, uv, vd + p * m, orow);
    }
    return true;
  }
  ker.masked_dot_cols(k, m, urow, vd, cols, observed, orow);
  return false;
}

}  // namespace

void MaskedReconstructPacked(const Matrix& u, const Matrix& v,
                             const ObservedIndex& omega,
                             std::span<double> out) {
  SMFL_CHECK_EQ(u.cols(), v.rows());
  SMFL_CHECK_EQ(u.rows(), omega.rows());
  SMFL_CHECK_EQ(v.cols(), omega.cols());
  SMFL_CHECK_EQ(static_cast<Index>(out.size()), omega.Count());
  const Index k = u.cols(), m = v.cols();
  constexpr Index kRowGrain = 16;
  // Kernel table resolved on the calling thread (thread-local ScopedSimd
  // overrides must reach the pool workers running the chunks — simd.h).
  const la::simd::Kernels& ker = la::simd::Active();
  if (ker.tier != la::simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.masked_reconstruct");
  }
  parallel::ParallelFor(0, omega.rows(), kRowGrain, [&](Index r0, Index r1) {
    std::vector<double> row(static_cast<size_t>(m));
    Index dense_rows = 0, gather_rows = 0;
    for (Index i = r0; i < r1; ++i) {
      const std::span<const Index> cols = omega.RowCols(i);
      const Index observed = static_cast<Index>(cols.size());
      if (observed == 0) continue;
      if (ReconstructRowForCols(ker, k, m, u.data() + i * k, v.data(),
                                cols.data(), observed, row.data())) {
        ++dense_rows;
      } else {
        ++gather_rows;
      }
      double* packed = out.data() + omega.RowBegin(i);
      for (Index c = 0; c < observed; ++c) packed[c] = row[cols[c]];
    }
    // Crossover decisions, aggregated per chunk (counters are atomic).
    SMFL_COUNTER_ADD("la.simd.dispatch.masked_rows_dense", dense_rows);
    SMFL_COUNTER_ADD("la.simd.dispatch.masked_rows_gather", gather_rows);
  });
}

Matrix MaskedReconstruct(const Matrix& u, const Matrix& v,
                         const ObservedIndex& omega) {
  std::vector<double> packed(static_cast<size_t>(omega.Count()));
  MaskedReconstructPacked(u, v, omega, packed);
  Matrix out(u.rows(), v.cols());
  for (Index i = 0; i < omega.rows(); ++i) {
    const std::span<const Index> cols = omega.RowCols(i);
    for (size_t c = 0; c < cols.size(); ++c) {
      out(i, cols[c]) = packed[static_cast<size_t>(omega.RowBegin(i)) + c];
    }
  }
  return out;
}

Matrix MaskedReconstruct(const Matrix& u, const Matrix& v, const Mask& mask) {
  return MaskedReconstruct(u, v, ObservedIndex::FromMask(mask));
}

namespace {

// Squared residual of one row over its observed columns. Dense rows (by
// the same per-tier crossover as the reconstruction) vectorize the
// elementwise (x - r)^2 into a scratch row, then fold the observed entries
// in the same ascending-j order the scalar loop uses — each d*d is one sub
// and one mul in both paths, and the accumulation itself never vectorizes,
// so the sum is bitwise identical across tiers and across the crossover.
// `xvals` (nullable) is the packed observed-value row of an ObservedIndex:
// bit-copies of x at the observed columns, read sequentially instead of
// gathered.
inline double RowSquaredError(const la::simd::Kernels& ker, Index m,
                              const double* xrow, const double* xvals,
                              const double* rrow, const Index* cols,
                              Index observed, double* sq) {
  double acc = 0.0;
  if (observed * ker.dense_crossover >= m) {
    ker.sq_diff(m, xrow, rrow, sq);
    for (Index c = 0; c < observed; ++c) {
      acc += sq[cols[c]];
    }
  } else if (xvals != nullptr) {
    for (Index c = 0; c < observed; ++c) {
      const double d = xvals[c] - rrow[cols[c]];
      acc += d * d;
    }
  } else {
    for (Index c = 0; c < observed; ++c) {
      const Index j = cols[c];
      const double d = xrow[j] - rrow[j];
      acc += d * d;
    }
  }
  return acc;
}

}  // namespace

double MaskedSquaredError(const Matrix& x, const Mask& mask,
                          const Matrix& uv_masked) {
  return MaskedSquaredError(x, ObservedIndex::FromMask(mask), uv_masked);
}

double MaskedSquaredError(const Matrix& x, const ObservedIndex& omega,
                          const Matrix& uv_masked) {
  SMFL_CHECK(x.SameShape(uv_masked));
  SMFL_CHECK_EQ(x.rows(), omega.rows());
  SMFL_CHECK_EQ(x.cols(), omega.cols());
  const Index m = x.cols();
  // The chunking fixes the summation order of the per-row partials; the
  // packed-reconstruction objective (mf::MaskedMuEngine) uses this grain.
  constexpr Index kRowGrain = 64;
  const la::simd::Kernels& ker = la::simd::Active();
  if (ker.tier != la::simd::Tier::kScalar) {
    SMFL_COUNTER_INC("la.simd.dispatch.masked_sq_err");
  }
  return parallel::ParallelReduce(
      0, x.rows(), kRowGrain, [&](Index r0, Index r1) {
        std::vector<double> sq(static_cast<size_t>(m));
        double acc = 0.0;
        for (Index i = r0; i < r1; ++i) {
          const std::span<const Index> cols = omega.RowCols(i);
          const Index observed = static_cast<Index>(cols.size());
          if (observed == 0) continue;
          const std::span<const double> vals = omega.RowValues(i);
          acc += RowSquaredError(ker, m, x.data() + i * m,
                                 vals.empty() ? nullptr : vals.data(),
                                 uv_masked.data() + i * m, cols.data(),
                                 observed, sq.data());
        }
        return acc;
      });
}

}  // namespace smfl::data
