// Great-circle k-NN machinery + randomized property ("fuzz") sweeps over
// the data-layer invariants that every pipeline leans on.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/data/csv.h"
#include "src/data/normalize.h"
#include "src/la/ops.h"
#include "src/spatial/graph.h"
#include "src/spatial/knn.h"
#include "src/spatial/metrics.h"

namespace smfl {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;

// ------------------------------------------------------------- haversine

TEST(HaversineKnnTest, ChordConversionRoundTrip) {
  for (double km : {0.0, 1.0, 111.2, 5570.0, 20000.0}) {
    EXPECT_NEAR(spatial::ChordToKm(spatial::KmToChord(km)),
                std::min(km, M_PI * 6371.0088), km * 1e-9 + 1e-9);
  }
}

TEST(HaversineKnnTest, EmbeddingOnUnitSphere) {
  Rng rng(3);
  Matrix lat_lon(50, 2);
  for (Index i = 0; i < 50; ++i) {
    lat_lon(i, 0) = rng.Uniform(-90.0, 90.0);
    lat_lon(i, 1) = rng.Uniform(-180.0, 180.0);
  }
  Matrix embedded = spatial::EmbedLatLonOnSphere(lat_lon);
  ASSERT_EQ(embedded.cols(), 3);
  for (Index i = 0; i < 50; ++i) {
    const double norm = std::sqrt(embedded(i, 0) * embedded(i, 0) +
                                  embedded(i, 1) * embedded(i, 1) +
                                  embedded(i, 2) * embedded(i, 2));
    EXPECT_NEAR(norm, 1.0, 1e-12);
  }
}

TEST(HaversineKnnTest, ChordDistanceMatchesHaversine) {
  Rng rng(5);
  Matrix lat_lon(20, 2);
  for (Index i = 0; i < 20; ++i) {
    lat_lon(i, 0) = rng.Uniform(-80.0, 80.0);
    lat_lon(i, 1) = rng.Uniform(-179.0, 179.0);
  }
  Matrix embedded = spatial::EmbedLatLonOnSphere(lat_lon);
  for (Index a = 0; a < 20; ++a) {
    for (Index b = a + 1; b < 20; ++b) {
      const double via_chord = spatial::ChordToKm(
          spatial::EuclideanDistance(embedded.Row(a), embedded.Row(b)));
      const double direct = spatial::HaversineKm(
          lat_lon(a, 0), lat_lon(a, 1), lat_lon(b, 0), lat_lon(b, 1));
      EXPECT_NEAR(via_chord, direct, 1e-6 * std::max(direct, 1.0));
    }
  }
}

TEST(HaversineKnnTest, MatchesBruteForceHaversine) {
  Rng rng(7);
  Matrix lat_lon(120, 2);
  for (Index i = 0; i < 120; ++i) {
    lat_lon(i, 0) = rng.Uniform(30.0, 60.0);
    lat_lon(i, 1) = rng.Uniform(100.0, 140.0);
  }
  auto knn = spatial::AllKnnHaversine(lat_lon, 4);
  ASSERT_TRUE(knn.ok());
  for (Index q = 0; q < 15; ++q) {
    // Oracle: sort all rows by direct haversine distance.
    std::vector<std::pair<double, Index>> all;
    for (Index i = 0; i < 120; ++i) {
      if (i == q) continue;
      all.emplace_back(
          spatial::HaversineKm(lat_lon(q, 0), lat_lon(q, 1), lat_lon(i, 0),
                               lat_lon(i, 1)),
          i);
    }
    std::sort(all.begin(), all.end());
    const auto& actual = (*knn)[static_cast<size_t>(q)];
    ASSERT_EQ(actual.size(), 4u);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_NEAR(actual[r].distance, all[r].first,
                  1e-6 * std::max(all[r].first, 1.0))
          << "query " << q << " rank " << r;
    }
  }
}

TEST(HaversineKnnTest, AntimeridianNeighborsFound) {
  // Points on both sides of the ±180° meridian are geographically close;
  // a naive Euclidean treatment of longitude would put them ~360° apart.
  Matrix lat_lon{{0.0, 179.9}, {0.0, -179.9}, {0.0, 150.0}};
  auto knn = spatial::AllKnnHaversine(lat_lon, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ((*knn)[0][0].index, 1);  // across the antimeridian
  EXPECT_EQ((*knn)[1][0].index, 0);
  EXPECT_LT((*knn)[0][0].distance, 30.0);  // ~22 km, not half the planet
}

TEST(HaversineKnnTest, GraphBuilderAgreesWithEuclideanOnSmallRegions) {
  // Over a small region the metrics are nearly proportional, so the p-NN
  // graphs coincide.
  Rng rng(9);
  Matrix lat_lon(60, 2);
  for (Index i = 0; i < 60; ++i) {
    lat_lon(i, 0) = rng.Uniform(45.0, 45.3);
    lat_lon(i, 1) = rng.Uniform(130.0, 130.3);
  }
  auto haversine = spatial::NeighborGraph::BuildHaversine(lat_lon, 3);
  ASSERT_TRUE(haversine.ok());
  // Scale lon by cos(lat) for a fair local Euclidean comparison.
  Matrix scaled = lat_lon;
  const double c = std::cos(45.15 * M_PI / 180.0);
  for (Index i = 0; i < 60; ++i) scaled(i, 1) *= c;
  auto euclidean = spatial::NeighborGraph::Build(scaled, 3);
  ASSERT_TRUE(euclidean.ok());
  EXPECT_LT(la::MaxAbsDiff(haversine->DenseD(), euclidean->DenseD()), 0.5);
}

TEST(HaversineKnnTest, RejectsWrongWidth) {
  EXPECT_FALSE(spatial::AllKnnHaversine(Matrix(5, 3), 2).ok());
  EXPECT_FALSE(spatial::NeighborGraph::BuildHaversine(Matrix(5, 3), 2).ok());
}

// ------------------------------------------------- randomized properties

Matrix RandomTable(Rng& rng, Index rows, Index cols) {
  Matrix x(rows, cols);
  for (Index i = 0; i < x.size(); ++i) {
    x.data()[i] = rng.Uniform(-100.0, 100.0);
  }
  return x;
}

Mask RandomMask(Rng& rng, Index rows, Index cols, double density) {
  Mask mask(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (rng.Bernoulli(density)) mask.Set(i, j);
    }
  }
  return mask;
}

class RandomizedPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedPropertyTest, MaskAlgebraLaws) {
  Rng rng(1000 + GetParam());
  const Index rows = 1 + static_cast<Index>(rng.UniformInt(20));
  const Index cols = 1 + static_cast<Index>(rng.UniformInt(10));
  Mask a = RandomMask(rng, rows, cols, 0.4);
  Mask b = RandomMask(rng, rows, cols, 0.6);
  // De Morgan: ~(a & b) == ~a | ~b.
  EXPECT_TRUE(a.And(b).Complement() == a.Complement().Or(b.Complement()));
  // Involution and partition.
  EXPECT_TRUE(a.Complement().Complement() == a);
  EXPECT_EQ(a.Count() + a.Complement().Count(), rows * cols);
  // Entries() agrees with Count().
  EXPECT_EQ(static_cast<Index>(a.Entries().size()), a.Count());
}

TEST_P(RandomizedPropertyTest, CombineApplyIdentities) {
  Rng rng(2000 + GetParam());
  const Index rows = 1 + static_cast<Index>(rng.UniformInt(15));
  const Index cols = 1 + static_cast<Index>(rng.UniformInt(8));
  Matrix x = RandomTable(rng, rows, cols);
  Matrix y = RandomTable(rng, rows, cols);
  Mask mask = RandomMask(rng, rows, cols, 0.5);
  // Combine(x, x) == x.
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(data::CombineByMask(x, x, mask), x), 0.0);
  // Combine respects the partition: masked cells from x, rest from y.
  Matrix combined = data::CombineByMask(x, y, mask);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      EXPECT_DOUBLE_EQ(combined(i, j),
                       mask.Contains(i, j) ? x(i, j) : y(i, j));
    }
  }
  // ApplyMask(x, all) == x; ApplyMask(x, none) == 0.
  EXPECT_DOUBLE_EQ(
      la::MaxAbsDiff(data::ApplyMask(x, Mask::AllSet(rows, cols)), x), 0.0);
  EXPECT_DOUBLE_EQ(la::FrobeniusNorm(data::ApplyMask(x, Mask(rows, cols))),
                   0.0);
}

TEST_P(RandomizedPropertyTest, NormalizerRoundTripOnRandomTables) {
  Rng rng(3000 + GetParam());
  const Index rows = 2 + static_cast<Index>(rng.UniformInt(30));
  const Index cols = 1 + static_cast<Index>(rng.UniformInt(10));
  Matrix x = RandomTable(rng, rows, cols);
  auto normalizer = data::MinMaxNormalizer::Fit(x);
  ASSERT_TRUE(normalizer.ok());
  Matrix y = normalizer->Transform(x);
  for (Index i = 0; i < y.size(); ++i) {
    EXPECT_GE(y.data()[i], -1e-12);
    EXPECT_LE(y.data()[i], 1.0 + 1e-12);
  }
  EXPECT_LT(la::MaxAbsDiff(normalizer->InverseTransform(y), x), 1e-9);
}

TEST_P(RandomizedPropertyTest, CsvRoundTripOnRandomTables) {
  Rng rng(4000 + GetParam());
  const Index rows = 1 + static_cast<Index>(rng.UniformInt(12));
  const Index cols = 2 + static_cast<Index>(rng.UniformInt(6));
  Matrix x = RandomTable(rng, rows, cols);
  Mask observed = RandomMask(rng, rows, cols, 0.8);
  std::vector<std::string> names;
  for (Index j = 0; j < cols; ++j) names.push_back("c" + std::to_string(j));
  auto table = data::Table::Create(names, x, std::min<Index>(2, cols));
  ASSERT_TRUE(table.ok());
  // Serialize through a string (WriteCsv writes files; ParseCsv is the
  // inverse of the same format).
  std::string csv_text = "c0";
  for (Index j = 1; j < cols; ++j) csv_text += ",c" + std::to_string(j);
  csv_text += "\n";
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (j > 0) csv_text += ",";
      if (observed.Contains(i, j)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", x(i, j));
        csv_text += buf;
      }
    }
    csv_text += "\n";
  }
  data::CsvReadOptions options;
  options.spatial_cols = std::min<Index>(2, cols);
  auto parsed = data::ParseCsv(csv_text, options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->observed == observed);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (observed.Contains(i, j)) {
        EXPECT_DOUBLE_EQ(parsed->table.values()(i, j), x(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace smfl
