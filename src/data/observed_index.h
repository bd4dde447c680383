// CSR-style layout of the observed set Ω (the paper's R_Ω support).
//
// The fit loop only ever touches observed entries, yet a Mask answers
// "which columns of row i are observed?" by rescanning its byte row. An
// ObservedIndex answers it with a precomputed span: row_ptr + col_idx in
// the same compressed-sparse-row shape as la::SparseMatrix (sparse.h),
// built once per fit in O(n·m) and reused by every update step,
// reconstruction, objective evaluation, and fold-in grouping afterwards.
// The index itself costs O(|Ω|) memory ((rows+1 + |Ω|) Index slots, plus
// |Ω| doubles when the observed values are packed alongside), independent
// of how sparse the byte grid it came from was.
//
// The index is a pure re-layout: the masked kernels consuming it visit the
// observed columns in the same ascending order as a scan of the mask
// would, so they equal the unfused ApplyMask(MatMul(u, v)) bit for bit —
// tests/observed_index_test.cc proves it across observed rates, thread
// counts, and SIMD tiers.

#ifndef SMFL_DATA_OBSERVED_INDEX_H_
#define SMFL_DATA_OBSERVED_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/data/mask.h"

namespace smfl::data {

class ObservedIndex {
 public:
  ObservedIndex() = default;

  // Builds the index from a mask's set entries (column order ascending
  // within each row, rows ascending — the mask's row-major order).
  static ObservedIndex FromMask(const Mask& mask);

  // Same, additionally packing the observed entries of `values` (same
  // shape as the mask) contiguously, so sparse consumers read |Ω| doubles
  // sequentially instead of gathering from the dense n×m buffer.
  static ObservedIndex FromMask(const Mask& mask, const Matrix& values);

  // Builds from a raw row-major byte grid (nonzero = observed), the layout
  // Mask::RowData exposes and fold-in's usable-cell vector shares.
  static ObservedIndex FromRowMajorBytes(Index rows, Index cols,
                                         const uint8_t* bytes);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  // |Ω|: total observed entries.
  Index Count() const { return static_cast<Index>(col_idx_.size()); }

  // Observed entries in row i.
  Index RowCount(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    return row_ptr_[static_cast<size_t>(i) + 1] -
           row_ptr_[static_cast<size_t>(i)];
  }

  // Offset of row i's first entry in the CSR order: packed per-entry
  // arrays parallel to the index (RowValues, a packed R_Ω(UV)) start row i
  // here.
  Index RowBegin(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    return row_ptr_[static_cast<size_t>(i)];
  }

  // Row i's observed column indices, ascending.
  std::span<const Index> RowCols(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    const auto begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(i)]);
    const auto end =
        static_cast<size_t>(row_ptr_[static_cast<size_t>(i) + 1]);
    return {col_idx_.data() + begin, end - begin};
  }

  // Row i's packed observed values (parallel to RowCols); empty when the
  // index was built without values.
  std::span<const double> RowValues(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    if (values_.empty()) return {};
    const auto begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(i)]);
    const auto end =
        static_cast<size_t>(row_ptr_[static_cast<size_t>(i) + 1]);
    return {values_.data() + begin, end - begin};
  }

  bool HasValues() const { return !values_.empty(); }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;  // size rows_ + 1
  std::vector<Index> col_idx_;  // ascending within each row
  std::vector<double> values_;  // optional; parallel to col_idx_
};

// R_Ω(U V) / ||R_Ω(X) − UV_Ω||_F² consuming the precomputed index. The
// Mask overloads in mask.h build an index and call these. Implemented in
// mask.cc.
[[nodiscard]] Matrix MaskedReconstruct(const Matrix& u, const Matrix& v,
                                       const ObservedIndex& omega);
// The same entries of R_Ω(U V) packed in the index's CSR order
// (out.size() == omega.Count()), bit for bit: the |Ω|-sized form the
// masked update engine (mf/masked_mu.h) keeps instead of an N×M matrix.
void MaskedReconstructPacked(const Matrix& u, const Matrix& v,
                             const ObservedIndex& omega,
                             std::span<double> out);
[[nodiscard]] double MaskedSquaredError(const Matrix& x,
                                        const ObservedIndex& omega,
                                        const Matrix& uv_masked);

}  // namespace smfl::data

#endif  // SMFL_DATA_OBSERVED_INDEX_H_
