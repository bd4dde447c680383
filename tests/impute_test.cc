#include <gtest/gtest.h>

#include <cmath>

#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"
#include "src/la/ops.h"
#include "src/impute/mf_imputers.h"
#include "src/impute/neighbor_util.h"
#include "src/impute/registry.h"
#include "src/impute/regression.h"
#include "src/impute/simple.h"
#include "src/impute/statistical.h"

namespace smfl::impute {
namespace {

struct Scenario {
  Matrix truth;
  Mask observed;
  Matrix input;
  double mean_rms = 0.0;  // RMS of plain column-mean imputation
};

Scenario MakeScenario(Index rows, double missing_rate, uint64_t seed,
                      bool vehicle = false) {
  auto dataset = vehicle ? data::MakeVehicleLike(rows, seed)
                         : data::MakeLakeLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Scenario s;
  s.truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = missing_rate;
  inject.preserve_complete_rows = 40;
  inject.seed = seed + 100;
  auto injection = data::InjectMissing(dataset->table, inject);
  SMFL_CHECK(injection.ok());
  s.observed = injection->observed;
  s.input = data::ApplyMask(s.truth, s.observed);
  MeanImputer mean;
  auto mean_imputed = mean.Impute(s.input, s.observed, 2);
  SMFL_CHECK(mean_imputed.ok());
  s.mean_rms =
      *exp::RmsOverMask(*mean_imputed, s.truth, s.observed.Complement());
  return s;
}

double RunRms(const Imputer& imputer, const Scenario& s) {
  auto imputed = imputer.Impute(s.input, s.observed, 2);
  SMFL_CHECK(imputed.ok()) << imputer.name() << ": "
                           << imputed.status().ToString();
  auto rms = exp::RmsOverMask(*imputed, s.truth, s.observed.Complement());
  SMFL_CHECK(rms.ok());
  return *rms;
}

void CheckObservedPreserved(const Imputer& imputer, const Scenario& s) {
  auto imputed = imputer.Impute(s.input, s.observed, 2);
  ASSERT_TRUE(imputed.ok()) << imputer.name();
  for (Index i = 0; i < s.input.rows(); ++i) {
    for (Index j = 0; j < s.input.cols(); ++j) {
      if (s.observed.Contains(i, j)) {
        EXPECT_DOUBLE_EQ((*imputed)(i, j), s.input(i, j))
            << imputer.name() << " modified observed cell (" << i << ","
            << j << ")";
      }
    }
  }
  EXPECT_FALSE(imputed->HasNonFinite()) << imputer.name();
}

// ------------------------------------------------------------ contracts

// Every registered imputer must preserve observed entries and return
// finite values.
class ImputerContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ImputerContractTest, PreservesObservedAndFinite) {
  auto imputer = MakeImputer(GetParam());
  ASSERT_TRUE(imputer.ok());
  Scenario s = MakeScenario(120, 0.15, 7);
  CheckObservedPreserved(**imputer, s);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ImputerContractTest,
    ::testing::Values("Mean", "kNN", "kNNE", "LOESS", "IIM", "MC", "DLM",
                      "GAIN", "SoftImpute", "Iterative", "CAMF", "NMF",
                      "SMF", "SMFL"));

TEST(RegistryTest, KnownNamesResolveCaseInsensitive) {
  EXPECT_TRUE(MakeImputer("smfl").ok());
  EXPECT_TRUE(MakeImputer("SoftImpute").ok());
  EXPECT_TRUE(MakeImputer("KNNE").ok());
  auto missing = MakeImputer("oracle");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, TableIvOrder) {
  auto names = RegisteredImputers();
  ASSERT_EQ(names.size(), 12u);
  EXPECT_EQ(names.front(), "kNNE");
  EXPECT_EQ(names.back(), "SMFL");
}

TEST(RegistryTest, NamesMatchInstances) {
  for (const auto& name : RegisteredImputers()) {
    auto imputer = MakeImputer(name);
    ASSERT_TRUE(imputer.ok()) << name;
    EXPECT_EQ((*imputer)->name(), name);
  }
}

// ------------------------------------------------------------ quality

TEST(ImputeQualityTest, NeighborAndRegressionBeatMean) {
  Scenario s = MakeScenario(400, 0.1, 11);
  EXPECT_LT(RunRms(KnnImputer(), s), s.mean_rms);
  EXPECT_LT(RunRms(IterativeImputer(), s), s.mean_rms);
  EXPECT_LT(RunRms(DlmImputer(), s), s.mean_rms);
}

TEST(ImputeQualityTest, SmflIsBestOfMfFamily) {
  // Averaged over several dataset seeds: individual draws have enough
  // variance that single-seed comparisons are not meaningful.
  double nmf = 0.0, smf = 0.0, smfl = 0.0;
  for (uint64_t seed : {13u, 29u, 47u}) {
    Scenario s = MakeScenario(800, 0.1, seed, /*vehicle=*/true);
    nmf += RunRms(NmfImputer(), s);
    smf += RunRms(SmfImputer(), s);
    smfl += RunRms(SmflImputer(), s);
  }
  EXPECT_LT(smf, nmf);
  // SMFL matches SMF within run-to-run variance and beats plain NMF by a
  // clear margin (the paper's Table IV ordering).
  EXPECT_LE(smfl, smf * 1.15);
  EXPECT_LT(smfl, nmf);
}

TEST(ImputeQualityTest, SoftImputeReasonable) {
  Scenario s = MakeScenario(300, 0.1, 17);
  EXPECT_LT(RunRms(SoftImputeImputer(), s), s.mean_rms * 1.2);
}

// ------------------------------------------------------------ edge cases

TEST(ImputeEdgeTest, FullyObservedInputIsIdentity) {
  Scenario s = MakeScenario(60, 0.1, 19);
  Mask all = Mask::AllSet(s.truth.rows(), s.truth.cols());
  for (const char* name : {"Mean", "kNN", "DLM", "Iterative"}) {
    auto imputer = MakeImputer(name);
    ASSERT_TRUE(imputer.ok());
    auto imputed = (*imputer)->Impute(s.truth, all, 2);
    ASSERT_TRUE(imputed.ok()) << name;
    EXPECT_LT(la::MaxAbsDiff(*imputed, s.truth), 1e-12) << name;
  }
}

TEST(ImputeEdgeTest, EmptyMatrixRejected) {
  for (const char* name : {"Mean", "kNN", "LOESS", "DLM"}) {
    auto imputer = MakeImputer(name);
    ASSERT_TRUE(imputer.ok());
    EXPECT_FALSE((*imputer)->Impute(Matrix(), Mask(), 2).ok()) << name;
  }
}

TEST(ImputeEdgeTest, MaskShapeMismatchRejected) {
  Matrix x(4, 4, 0.5);
  Mask wrong(2, 2);
  for (const char* name : {"Mean", "kNN", "Iterative", "NMF"}) {
    auto imputer = MakeImputer(name);
    ASSERT_TRUE(imputer.ok());
    EXPECT_FALSE((*imputer)->Impute(x, wrong, 2).ok()) << name;
  }
}

TEST(ImputeEdgeTest, HighMissingRateStillFinite) {
  Scenario s = MakeScenario(200, 0.6, 23);
  for (const char* name : {"Mean", "kNN", "kNNE", "DLM", "Iterative",
                           "SMFL"}) {
    auto imputer = MakeImputer(name);
    ASSERT_TRUE(imputer.ok());
    auto imputed = (*imputer)->Impute(s.input, s.observed, 2);
    ASSERT_TRUE(imputed.ok()) << name;
    EXPECT_FALSE(imputed->HasNonFinite()) << name;
  }
}

// ------------------------------------------------------------ neighbor util

TEST(NeighborUtilTest, PartialRowDistance) {
  Matrix x{{0, 0, 9}, {3, 4, -9}};
  EXPECT_DOUBLE_EQ(PartialRowDistance(x, 0, 1, {0, 1}), 5.0);
  EXPECT_TRUE(std::isinf(PartialRowDistance(x, 0, 1, {})));
}

TEST(NeighborUtilTest, ObservedColumns) {
  Mask m(1, 3);
  m.Set(0, 0);
  m.Set(0, 2);
  EXPECT_EQ(ObservedColumns(m, 0), (std::vector<Index>{0, 2}));
}

TEST(NeighborUtilTest, RowsCompleteOn) {
  Mask m(3, 2);
  m.Set(0, 0);
  m.Set(0, 1);
  m.Set(1, 0);
  m.Set(2, 0);
  m.Set(2, 1);
  EXPECT_EQ(RowsCompleteOn(m, {0, 1}), (std::vector<Index>{0, 2}));
  EXPECT_EQ(RowsCompleteOn(m, {0}), (std::vector<Index>{0, 1, 2}));
}

TEST(NeighborUtilTest, NearestAmongExcludesSelfAndSorts) {
  Matrix x{{0.0}, {1.0}, {3.0}, {0.5}};
  auto nn = NearestAmong(x, 0, {0, 1, 2, 3}, {0}, 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].row, 3);
  EXPECT_EQ(nn[1].row, 1);
  EXPECT_LE(nn[0].distance, nn[1].distance);
}

}  // namespace
}  // namespace smfl::impute
