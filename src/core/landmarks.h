// Landmark generation and injection (paper §III-A).
//
// Landmarks are the K centers of a K-means clustering of the spatial
// information SI. They are written into the first L columns of the feature
// matrix V (the set Φ of Definition 1) and frozen: their gradients are zero
// throughout training, which (a) pins the learned features to geography,
// (b) makes features interpretable as per-cluster profiles, and (c) skips
// the update work for those columns.

#ifndef SMFL_CORE_LANDMARKS_H_
#define SMFL_CORE_LANDMARKS_H_

#include <cstdint>
#include <span>

#include "src/common/status.h"
#include "src/la/matrix.h"

namespace smfl::core {

using la::Index;
using la::Matrix;

struct LandmarkOptions {
  // K-means iteration budget (paper default t2 = 300, early stop).
  int kmeans_max_iterations = 300;
  uint64_t seed = 17;
};

// Runs K-means(K = rank) over the rows of `si` (N x L) and returns the
// center matrix C (rank x L). Formula 9's landmark values.
Result<Matrix> GenerateLandmarks(const Matrix& si, Index rank,
                                 const LandmarkOptions& options = {});

// Writes C into the first L columns of V (v_ij = c_ij for (i,j) in Φ).
// Requires V to be rank x M with M >= L.
void InjectLandmarks(Matrix& v, const Matrix& landmarks);

// True iff the first C.cols() columns of V equal C exactly (test hook for
// the frozen-landmark invariant).
bool LandmarksIntact(const Matrix& v, const Matrix& landmarks);

// The landmark kernel (DESIGN.md §4.2), shared by the SMFL fit's U init and
// fold-in: writes u[c] = exp(−d_c²·l/|obs|/(2σ²)) + 1e-4 for every
// landmark c, normalized to sum 1, where d_c is the distance from `row` to
// landmark c over obs, the entries of `observed_cols` (ascending) below
// `l`. The l/|obs| factor scales a partial-coordinate distance up to the
// full-SI magnitude so the width stays comparable across rows. Returns
// false, leaving u untouched, when no coordinate below `l` is observed.
// Requires l <= landmarks.cols(); u holds landmarks.rows() entries.
bool LandmarkKernelWeights(const Matrix& landmarks, const double* row,
                           std::span<const Index> observed_cols, Index l,
                           double sigma2, double* u);

}  // namespace smfl::core

#endif  // SMFL_CORE_LANDMARKS_H_
