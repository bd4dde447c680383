#include <gtest/gtest.h>

#include <cmath>

#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"
#include "src/la/ops.h"
#include "src/repair/baseline_repairers.h"
#include "src/repair/repairer.h"

namespace smfl::repair {
namespace {

struct Scenario {
  Matrix truth;
  Matrix dirty;
  Mask dirty_cells;
  double dirty_rms = 0.0;  // error of doing nothing
};

Scenario MakeScenario(Index rows, double error_rate, uint64_t seed) {
  auto dataset = data::MakeLakeLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Scenario s;
  s.truth = normalizer->Transform(dataset->table.values());
  std::vector<std::string> names;
  for (Index j = 0; j < s.truth.cols(); ++j) {
    names.push_back("c" + std::to_string(j));
  }
  auto table = data::Table::Create(names, s.truth, 2);
  SMFL_CHECK(table.ok());
  data::ErrorInjectionOptions inject;
  inject.error_rate = error_rate;
  inject.preserve_complete_rows = 30;
  inject.seed = seed + 1000;
  auto injection = data::InjectErrors(*table, inject);
  SMFL_CHECK(injection.ok());
  s.dirty = injection->dirty;
  s.dirty_cells = injection->dirty_cells;
  s.dirty_rms = *exp::RmsOverMask(s.dirty, s.truth, s.dirty_cells);
  return s;
}

// Every registered repairer: clean cells untouched, dirty cells replaced
// with finite values.
class RepairerContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RepairerContractTest, CleanCellsUntouchedAndFinite) {
  auto repairer = MakeRepairer(GetParam());
  ASSERT_TRUE(repairer.ok());
  Scenario s = MakeScenario(150, 0.1, 3);
  auto repaired = (*repairer)->Repair(s.dirty, s.dirty_cells, 2);
  ASSERT_TRUE(repaired.ok()) << GetParam();
  EXPECT_FALSE(repaired->HasNonFinite());
  for (Index i = 0; i < s.truth.rows(); ++i) {
    for (Index j = 0; j < s.truth.cols(); ++j) {
      if (!s.dirty_cells.Contains(i, j)) {
        EXPECT_DOUBLE_EQ((*repaired)(i, j), s.dirty(i, j))
            << GetParam() << " touched clean cell (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RepairerContractTest,
                         ::testing::Values("Baran", "HoloClean", "NMF",
                                           "SMF", "SMFL"));

TEST(RepairRegistryTest, ResolvesAndRejects) {
  EXPECT_TRUE(MakeRepairer("baran").ok());
  EXPECT_TRUE(MakeRepairer("SMFL").ok());
  EXPECT_FALSE(MakeRepairer("wrench").ok());
  auto names = RegisteredRepairers();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names.back(), "SMFL");
  for (const auto& name : names) {
    auto repairer = MakeRepairer(name);
    ASSERT_TRUE(repairer.ok());
    EXPECT_EQ((*repairer)->name(), name);
  }
}

TEST(RepairQualityTest, EveryMethodBeatsDoingNothing) {
  Scenario s = MakeScenario(400, 0.1, 7);
  for (const auto& name : RegisteredRepairers()) {
    auto repairer = MakeRepairer(name);
    ASSERT_TRUE(repairer.ok());
    auto repaired = (*repairer)->Repair(s.dirty, s.dirty_cells, 2);
    ASSERT_TRUE(repaired.ok()) << name;
    auto rms = exp::RmsOverMask(*repaired, s.truth, s.dirty_cells);
    ASSERT_TRUE(rms.ok());
    EXPECT_LT(*rms, s.dirty_rms) << name;
  }
}

TEST(RepairQualityTest, SpatialMethodsBeatGenericBaselines) {
  // The Table VI shape: SMF/SMFL below Baran/HoloClean on spatial data.
  // Averaged over seeds: per-draw comparisons between the two spatial
  // methods are within noise.
  double baran = 0.0, holoclean = 0.0, smf = 0.0, smfl = 0.0;
  for (uint64_t seed : {11u, 29u, 61u}) {
    Scenario s = MakeScenario(500, 0.1, seed);
    auto run = [&](const char* name) {
      auto repairer = MakeRepairer(name);
      SMFL_CHECK(repairer.ok());
      auto repaired = (*repairer)->Repair(s.dirty, s.dirty_cells, 2);
      SMFL_CHECK(repaired.ok()) << name;
      return *exp::RmsOverMask(*repaired, s.truth, s.dirty_cells);
    };
    baran += run("Baran");
    holoclean += run("HoloClean");
    smf += run("SMF");
    smfl += run("SMFL");
  }
  EXPECT_LT(smfl, baran);
  EXPECT_LT(smfl, holoclean);
  EXPECT_LE(smfl, smf * 1.10);
}

TEST(RepairEdgeTest, NoDirtyCellsIsIdentity) {
  Scenario s = MakeScenario(80, 0.1, 13);
  Mask none(s.truth.rows(), s.truth.cols());
  for (const char* name : {"Baran", "HoloClean"}) {
    auto repairer = MakeRepairer(name);
    ASSERT_TRUE(repairer.ok());
    auto repaired = (*repairer)->Repair(s.truth, none, 2);
    ASSERT_TRUE(repaired.ok()) << name;
    EXPECT_LT(la::MaxAbsDiff(*repaired, s.truth), 1e-12) << name;
  }
}

TEST(RepairEdgeTest, RejectsShapeMismatch) {
  Matrix dirty(4, 4, 0.5);
  Mask wrong(2, 2);
  for (const auto& name : RegisteredRepairers()) {
    auto repairer = MakeRepairer(name);
    ASSERT_TRUE(repairer.ok());
    EXPECT_FALSE((*repairer)->Repair(dirty, wrong, 2).ok()) << name;
  }
}

TEST(RepairEdgeTest, HeavilyCorruptedColumnStillRepairs) {
  Scenario s = MakeScenario(200, 0.1, 17);
  // Corrupt most of one column.
  for (Index i = 0; i < s.truth.rows(); i += 2) {
    s.dirty(i, 3) = 0.99;
    s.dirty_cells.Set(i, 3);
  }
  BaranLikeRepairer baran;
  auto repaired = baran.Repair(s.dirty, s.dirty_cells, 2);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->HasNonFinite());
}

}  // namespace
}  // namespace smfl::repair
