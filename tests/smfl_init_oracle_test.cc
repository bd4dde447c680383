// Oracle for SMFL's cluster-consistent initialization (DESIGN.md §4.2): a
// reference written straight from the description, sharing no code with
// the fit path beyond K-means itself. In order, from one Rng(seed):
//
//   1. U and V uniform in [0.01, 1), U first;
//   2. landmarks C = K-means centers over the column-mean-filled SI block,
//      injected into V's first L columns;
//   3. σ² = mean squared distance from each row's filled SI to its nearest
//      final center (ties to the lowest id), floored at 1e-8;
//   4. U row i = normalized exp(−d²·L/|obs|/(2σ²)) + 1e-4 over the row's
//      observed SI coordinates, uniform 1/K when none is observed;
//   5. V(c, j), j ≥ L = mean of the observed x(i, j) over rows nearest to
//      center c, floored at 1e-4, or a fresh uniform draw (c outer, j
//      inner) when no such cell exists.
//
// A max_iterations = 0 FitSmflWithGraph must equal it bit for bit (U, V,
// landmarks) across K-means budgets {1, 300}, threads {1, 4} and SIMD
// tiers {0, 1}. At a budget of 1 the input is checked to have rows whose
// KMeansResult::assignments differ from the nearest final center, so an
// init that reused K-means' own assignments would fail here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/cluster/kmeans.h"
#include "src/common/rng.h"
#include "src/core/smfl.h"
#include "src/data/mask.h"
#include "src/data/normalize.h"
#include "src/spatial/graph.h"

namespace smfl {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;

constexpr Index kRows = 160, kCols = 9, kSpatial = 2, kRank = 6;

struct Reference {
  Matrix u, v, landmarks;
  Index fallback_draws = 0;  // free-V cells that took the Rng fallback
  // Rows whose KMeansResult::assignments is not their nearest final center.
  Index stale_assignments = 0;
};

Reference ReferenceInit(const Matrix& x, const Mask& observed,
                        int kmeans_max_iterations, uint64_t seed) {
  const Index n = x.rows(), m = x.cols(), k = kRank, l = kSpatial;
  Reference ref;
  Rng rng(seed);
  ref.u = Matrix(n, k);
  ref.v = Matrix(k, m);
  for (Index e = 0; e < ref.u.size(); ++e) {
    ref.u.data()[e] = rng.Uniform(0.01, 1.0);
  }
  for (Index e = 0; e < ref.v.size(); ++e) {
    ref.v.data()[e] = rng.Uniform(0.01, 1.0);
  }

  Mask si_mask(n, l);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < l; ++j) si_mask.Set(i, j, observed.Contains(i, j));
  }
  const Matrix si_filled =
      data::FillWithColumnMeans(x.Block(0, 0, n, l), si_mask);
  cluster::KMeansOptions km;
  km.k = k;
  km.max_iterations = kmeans_max_iterations;
  km.seed = seed;
  auto clustering = cluster::KMeans(si_filled, km);
  SMFL_CHECK(clustering.ok());
  ref.landmarks = clustering->centers;
  for (Index c = 0; c < k; ++c) {
    for (Index j = 0; j < l; ++j) ref.v(c, j) = ref.landmarks(c, j);
  }

  double sigma2 = 0.0;
  std::vector<Index> nearest(static_cast<size_t>(n), 0);
  for (Index i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (Index c = 0; c < k; ++c) {
      double d2 = 0.0;
      for (Index j = 0; j < l; ++j) {
        const double diff = si_filled(i, j) - ref.landmarks(c, j);
        d2 += diff * diff;
      }
      if (d2 < best) {
        best = d2;
        nearest[static_cast<size_t>(i)] = c;
      }
    }
    sigma2 += best;
    ref.stale_assignments += clustering->assignments[static_cast<size_t>(i)] !=
                             nearest[static_cast<size_t>(i)];
  }
  sigma2 = std::max(sigma2 / static_cast<double>(n), 1e-8);

  for (Index i = 0; i < n; ++i) {
    std::vector<Index> obs;
    for (Index j = 0; j < l; ++j) {
      if (observed.Contains(i, j)) obs.push_back(j);
    }
    if (obs.empty()) {
      for (Index c = 0; c < k; ++c) ref.u(i, c) = 1.0 / static_cast<double>(k);
      continue;
    }
    double sum = 0.0;
    for (Index c = 0; c < k; ++c) {
      double d2 = 0.0;
      for (Index j : obs) {
        const double diff = x(i, j) - ref.landmarks(c, j);
        d2 += diff * diff;
      }
      d2 *= static_cast<double>(l) / static_cast<double>(obs.size());
      ref.u(i, c) = std::exp(-d2 / (2.0 * sigma2)) + 1e-4;
      sum += ref.u(i, c);
    }
    for (Index c = 0; c < k; ++c) ref.u(i, c) /= sum;
  }

  for (Index c = 0; c < k; ++c) {
    for (Index j = l; j < m; ++j) {
      double sum = 0.0;
      Index count = 0;
      for (Index i = 0; i < n; ++i) {
        if (nearest[static_cast<size_t>(i)] != c || !observed.Contains(i, j)) {
          continue;
        }
        sum += x(i, j);
        ++count;
      }
      if (count > 0) {
        ref.v(c, j) = std::max(sum / static_cast<double>(count), 1e-4);
      } else {
        ref.v(c, j) = rng.Uniform(0.01, 1.0);
        ++ref.fallback_draws;
      }
    }
  }
  return ref;
}

// Clustered locations (so K-means has structure to find) and attributes.
// SI: every 7th row fully missing, every 5th partially (one coordinate).
// The last two columns are observed on 3 rows each, so most clusters have
// no observed cell in either and take the Rng fallback in both, which pins
// the (c outer, j inner) draw order.
struct Case {
  Matrix x;
  Mask observed;
};

Case MakeCase(uint64_t seed) {
  Rng rng(seed);
  Case c{Matrix(kRows, kCols), Mask(kRows, kCols)};
  for (Index i = 0; i < kRows; ++i) {
    const double cx = 0.15 + 0.7 * static_cast<double>(i % 4) / 3.0;
    const double cy = 0.2 + 0.6 * static_cast<double>((i / 4) % 3) / 2.0;
    c.x(i, 0) = std::clamp(cx + rng.Uniform(-0.2, 0.2), 0.0, 1.0);
    c.x(i, 1) = std::clamp(cy + rng.Uniform(-0.2, 0.2), 0.0, 1.0);
    for (Index j = kSpatial; j < kCols; ++j) {
      c.x(i, j) = rng.Uniform(0.0, 1.0);
    }
    for (Index j = 0; j < kCols; ++j) {
      bool seen = true;
      if (j < kSpatial) {
        seen = i % 7 != 3 && !(i % 5 == 1 && j == static_cast<Index>(i % 2));
      } else if (j >= kCols - 2) {
        seen = i % 53 == (j == kCols - 1 ? 0 : 7);
      } else {
        seen = rng.Uniform() < 0.6;
      }
      c.observed.Set(i, j, seen);
    }
  }
  return c;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b,
                        const std::string& label) {
  ASSERT_TRUE(a.SameShape(b)) << label;
  for (Index e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a.data()[e], b.data()[e]) << label << " at flat index " << e;
  }
}

TEST(SmflInitOracleTest, ZeroIterationFitMatchesReferenceInit) {
  for (uint64_t data_seed = 0; data_seed < 3; ++data_seed) {
    const Case input = MakeCase(300 + data_seed);
    Index full = 0, partial = 0, missing = 0;
    for (Index i = 0; i < kRows; ++i) {
      const Index seen = input.observed.Contains(i, 0) +
                         input.observed.Contains(i, 1);
      (seen == kSpatial ? full : seen == 0 ? missing : partial) += 1;
    }
    ASSERT_GT(full, 0);
    ASSERT_GT(partial, 0);
    ASSERT_GT(missing, 0);
    auto graph = spatial::NeighborGraph::Build(
        input.x.Block(0, 0, kRows, kSpatial), 3);
    ASSERT_TRUE(graph.ok());

    for (int kmeans_iterations : {1, 300}) {
      const uint64_t fit_seed = 40 + data_seed;
      const Reference ref = ReferenceInit(input.x, input.observed,
                                          kmeans_iterations, fit_seed);
      const std::string what = "data seed " + std::to_string(data_seed) +
                               " kmeans iterations " +
                               std::to_string(kmeans_iterations);
      EXPECT_GT(ref.fallback_draws, 0) << what;

      // The trap: K-means' own assignments are against the centers before
      // its last update, not the centers it returns.
      if (kmeans_iterations == 1) {
        EXPECT_GT(ref.stale_assignments, 0) << what;
      }

      for (int threads : {1, 4}) {
        for (int simd : {0, 1}) {
          const std::string at = what + " threads " +
                                 std::to_string(threads) + " simd " +
                                 std::to_string(simd);
          core::SmflOptions options;
          options.rank = kRank;
          options.seed = fit_seed;
          options.kmeans_max_iterations = kmeans_iterations;
          options.max_iterations = 0;
          options.threads = threads;
          options.simd = simd;
          auto fit = core::FitSmflWithGraph(input.x, input.observed, kSpatial,
                                            *graph, options);
          ASSERT_TRUE(fit.ok()) << at << ": " << fit.status().ToString();
          ExpectBitwiseEqual(fit->landmarks, ref.landmarks, at + " landmarks");
          ExpectBitwiseEqual(fit->u, ref.u, at + " U");
          ExpectBitwiseEqual(fit->v, ref.v, at + " V");
        }
      }
    }
  }
}

}  // namespace
}  // namespace smfl
