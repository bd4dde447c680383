#include "src/core/landmarks.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/kmeans.h"

namespace smfl::core {

Result<Matrix> GenerateLandmarks(const Matrix& si, Index rank,
                                 const LandmarkOptions& options) {
  if (si.rows() == 0 || si.cols() == 0) {
    return Status::InvalidArgument("GenerateLandmarks: empty SI");
  }
  if (rank <= 0) {
    return Status::InvalidArgument("GenerateLandmarks: rank must be positive");
  }
  if (rank > si.rows()) {
    return Status::InvalidArgument(
        "GenerateLandmarks: rank exceeds the number of observations");
  }
  cluster::KMeansOptions km;
  km.k = rank;
  km.max_iterations = options.kmeans_max_iterations;
  km.seed = options.seed;
  ASSIGN_OR_RETURN(cluster::KMeansResult result, cluster::KMeans(si, km));
  return std::move(result.centers);
}

void InjectLandmarks(Matrix& v, const Matrix& landmarks) {
  SMFL_CHECK_EQ(v.rows(), landmarks.rows());
  SMFL_CHECK_GE(v.cols(), landmarks.cols());
  v.SetBlock(0, 0, landmarks);
}

bool LandmarksIntact(const Matrix& v, const Matrix& landmarks) {
  if (v.rows() != landmarks.rows() || v.cols() < landmarks.cols()) {
    return false;
  }
  for (Index i = 0; i < landmarks.rows(); ++i) {
    for (Index j = 0; j < landmarks.cols(); ++j) {
      if (v(i, j) != landmarks(i, j)) return false;
    }
  }
  return true;
}

bool LandmarkKernelWeights(const Matrix& landmarks, const double* row,
                           std::span<const Index> observed_cols, Index l,
                           double sigma2, double* u) {
  SMFL_DCHECK(l <= landmarks.cols());
  const std::span<const Index> obs(
      observed_cols.begin(),
      std::lower_bound(observed_cols.begin(), observed_cols.end(), l));
  if (obs.empty()) return false;
  const double scale =
      static_cast<double>(l) / static_cast<double>(obs.size());
  double sum = 0.0;
  for (Index c = 0; c < landmarks.rows(); ++c) {
    double d2 = 0.0;
    for (Index j : obs) {
      const double diff = row[j] - landmarks(c, j);
      d2 += diff * diff;
    }
    d2 *= scale;
    u[c] = std::exp(-d2 / (2.0 * sigma2)) + 1e-4;
    sum += u[c];
  }
  for (Index c = 0; c < landmarks.rows(); ++c) u[c] /= sum;
  return true;
}

}  // namespace smfl::core
