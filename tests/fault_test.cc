// Unit tests for the deterministic fault-injection framework
// (src/common/fault.h) and its integration points in CSV I/O.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/common/fault.h"
#include "src/data/csv.h"

namespace smfl {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(FaultTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.unarmed.point"));
  EXPECT_EQ(FaultRegistry::Global().fires("test.unarmed.point"), 0);
}

TEST_F(FaultTest, ArmedPointFiresOnceByDefault) {
  FaultRegistry::Global().Arm("test.point");
  EXPECT_TRUE(FaultRegistry::Global().AnyArmed());
  EXPECT_TRUE(SMFL_FAULT_FIRED("test.point"));
  // Default spec: count = 1 → subsequent hits pass.
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.point"));
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.point"));
  EXPECT_EQ(FaultRegistry::Global().hits("test.point"), 3);
  EXPECT_EQ(FaultRegistry::Global().fires("test.point"), 1);
}

TEST_F(FaultTest, SkipDelaysFirstFire) {
  FaultSpec spec;
  spec.skip = 2;
  spec.count = 2;
  FaultRegistry::Global().Arm("test.skip", spec);
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.skip"));  // hit 1 (skipped)
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.skip"));  // hit 2 (skipped)
  EXPECT_TRUE(SMFL_FAULT_FIRED("test.skip"));   // hit 3 (fire 1)
  EXPECT_TRUE(SMFL_FAULT_FIRED("test.skip"));   // hit 4 (fire 2)
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.skip"));  // budget spent
}

TEST_F(FaultTest, NegativeCountFiresForever) {
  FaultSpec spec;
  spec.count = -1;
  FaultRegistry::Global().Arm("test.forever", spec);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(SMFL_FAULT_FIRED("test.forever"));
  }
}

TEST_F(FaultTest, ProbabilityIsDeterministicGivenSeed) {
  const auto run = [] {
    FaultRegistry::Global().SeedRng(7);
    FaultSpec spec;
    spec.count = -1;
    spec.probability = 0.5;
    FaultRegistry::Global().Arm("test.prob", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(SMFL_FAULT_FIRED("test.prob"));
    }
    FaultRegistry::Global().Disarm("test.prob");
    return fired;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  int fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 10);  // ~32 expected
  EXPECT_LT(fires, 54);
}

TEST_F(FaultTest, RearmResetsCounters) {
  FaultRegistry::Global().Arm("test.rearm");
  EXPECT_TRUE(SMFL_FAULT_FIRED("test.rearm"));
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.rearm"));
  FaultRegistry::Global().Arm("test.rearm");  // reset
  EXPECT_EQ(FaultRegistry::Global().hits("test.rearm"), 0);
  EXPECT_TRUE(SMFL_FAULT_FIRED("test.rearm"));
}

TEST_F(FaultTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault("test.scoped");
    EXPECT_TRUE(FaultRegistry::Global().AnyArmed());
  }
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.scoped"));
}

TEST_F(FaultTest, DisarmOnlyAffectsNamedPoint) {
  FaultRegistry::Global().Arm("test.a");
  FaultRegistry::Global().Arm("test.b");
  FaultRegistry::Global().Disarm("test.a");
  EXPECT_FALSE(SMFL_FAULT_FIRED("test.a"));
  EXPECT_TRUE(SMFL_FAULT_FIRED("test.b"));
}

// ------------------------------------------------- integration: CSV faults

TEST_F(FaultTest, CsvRowCorruptFaultQuarantinesInLenientMode) {
  FaultSpec spec;
  spec.skip = 1;  // corrupt the second data row
  ScopedFault fault("csv.row.corrupt", spec);
  data::CsvReadOptions options;
  options.mode = data::CsvMode::kLenient;
  auto csv = data::ParseCsv("a,b,c\n1,2,3\n4,5,6\n7,8,9\n", options);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->table.NumRows(), 2);
  ASSERT_EQ(csv->row_errors.size(), 1u);
  EXPECT_EQ(csv->row_errors[0].line, 3u);
  EXPECT_NE(csv->row_errors[0].message.find("injected"), std::string::npos);
}

TEST_F(FaultTest, CsvRowCorruptFaultFailsStrictMode) {
  ScopedFault fault("csv.row.corrupt");
  auto csv = data::ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_FALSE(csv.ok());
  EXPECT_EQ(csv.status().code(), StatusCode::kDataError);
}

TEST_F(FaultTest, IoWriteFailFaultSurfacesIoError) {
  ScopedFault fault("io.write.fail");
  auto t = data::Table::Create({"a", "b"}, la::Matrix{{1.0, 2.0}}, 1);
  ASSERT_TRUE(t.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "smfl_fault_write.csv")
          .string();
  Status st = data::WriteCsv(path, *t);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("injected"), std::string::npos);
  // Fault budget spent: the retry succeeds.
  EXPECT_TRUE(data::WriteCsv(path, *t).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace smfl
