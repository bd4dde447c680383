#include "src/data/observed_index.h"

namespace smfl::data {

ObservedIndex ObservedIndex::FromRowMajorBytes(Index rows, Index cols,
                                               const uint8_t* bytes) {
  SMFL_CHECK_GE(rows, 0);
  SMFL_CHECK_GE(cols, 0);
  ObservedIndex out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  // First pass sizes the exact allocation; second pass fills. Both stream
  // the byte grid row-major, so the column order within each row (and the
  // row order overall) matches the mask scans the kernels used to do.
  Index total = 0;
  for (Index i = 0; i < rows; ++i) {
    const uint8_t* row = bytes + static_cast<size_t>(i) * static_cast<size_t>(cols);
    for (Index j = 0; j < cols; ++j) total += row[j] ? 1 : 0;
  }
  out.col_idx_.reserve(static_cast<size_t>(total));
  for (Index i = 0; i < rows; ++i) {
    const uint8_t* row = bytes + static_cast<size_t>(i) * static_cast<size_t>(cols);
    for (Index j = 0; j < cols; ++j) {
      if (row[j]) out.col_idx_.push_back(j);
    }
    out.row_ptr_[static_cast<size_t>(i) + 1] =
        static_cast<Index>(out.col_idx_.size());
  }
  return out;
}

ObservedIndex ObservedIndex::FromMask(const Mask& mask) {
  if (mask.rows() == 0 || mask.cols() == 0) {
    ObservedIndex out;
    out.rows_ = mask.rows();
    out.cols_ = mask.cols();
    out.row_ptr_.assign(static_cast<size_t>(mask.rows()) + 1, 0);
    return out;
  }
  return FromRowMajorBytes(mask.rows(), mask.cols(), mask.RowData(0));
}

ObservedIndex ObservedIndex::FromMask(const Mask& mask, const Matrix& values) {
  SMFL_CHECK_EQ(values.rows(), mask.rows());
  SMFL_CHECK_EQ(values.cols(), mask.cols());
  ObservedIndex out = FromMask(mask);
  out.values_.reserve(out.col_idx_.size());
  for (Index i = 0; i < out.rows_; ++i) {
    const double* vrow = values.data() + i * out.cols_;
    for (const Index j : out.RowCols(i)) {
      out.values_.push_back(vrow[j]);
    }
  }
  return out;
}

}  // namespace smfl::data
