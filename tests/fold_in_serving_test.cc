// Serving-path tests for batched fold-in (docs/serving.md):
//
//  * batched FoldIn is bitwise identical to row-at-a-time FoldInRow at
//    any thread count (the PR 2 determinism contract),
//  * per-row faults degrade through the report tiers instead of aborting
//    the batch,
//  * fit -> save -> load -> serve round-trips bitwise through the v3
//    model format (including the persisted normalizer),
//  * v1/v2 bare-text model files still load,
//  * `smfl apply` serves in the TRAINING normalization space — the old
//    per-batch re-fit produced systematically different (wrong) values.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/cli/commands.h"
#include "src/common/durable_io.h"
#include "src/common/parallel.h"
#include "src/core/fold_in.h"
#include "src/core/model_io.h"
#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/data/normalize.h"
#include "src/la/ops.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Fitted {
  Matrix truth;     // normalized ground truth (all rows)
  SmflModel model;  // fit on the first `train_rows` rows
  Index train_rows = 0;
};

Fitted TrainOnPrefix(Index total_rows, Index train_rows, uint64_t seed) {
  auto dataset = data::MakeLakeLike(total_rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  SMFL_CHECK(normalizer.ok());
  Fitted f;
  f.truth = normalizer->Transform(dataset->table.values());
  f.train_rows = train_rows;
  Matrix train = f.truth.Block(0, 0, train_rows, f.truth.cols());
  SmflOptions options;
  options.rank = 6;
  options.max_iterations = 120;
  auto model =
      FitSmfl(train, Mask::AllSet(train_rows, train.cols()), 2, options);
  SMFL_CHECK(model.ok());
  f.model = std::move(model).value();
  f.model.normalizer = std::move(normalizer).value();
  return f;
}

// Fresh rows after the training prefix with a deterministic hole pattern;
// every row keeps its coordinates plus at least one attribute.
void MakeFreshBatch(const Fitted& f, Index fresh, Matrix* x, Mask* observed) {
  const Index m = f.truth.cols();
  *x = Matrix(fresh, m);
  *observed = Mask(fresh, m);
  for (Index i = 0; i < fresh; ++i) {
    for (Index j = 0; j < m; ++j) {
      const bool hide = j >= 2 && (i + j) % 3 == 0;
      observed->Set(i, j, !hide);
      (*x)(i, j) = hide ? 0.0 : f.truth(f.train_rows + i, j);
    }
  }
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Flags MakeFlags(std::vector<std::string> args) {
  std::vector<const char*> argv = {"smfl"};
  for (const auto& a : args) argv.push_back(a.c_str());
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data());
  SMFL_CHECK(flags.ok());
  return std::move(flags).value();
}

// ------------------------------------------------- batched determinism

TEST(FoldInServingTest, BatchMatchesRowAtATimeBitwiseAtAnyThreadCount) {
  Fitted f = TrainOnPrefix(220, 180, 3);
  const Index fresh = 32;
  Matrix x;
  Mask observed;
  MakeFreshBatch(f, fresh, &x, &observed);

  auto run_batch = [&](int threads) {
    parallel::ScopedParallelism scope(threads);
    auto folded = FoldIn(f.model, x, observed);
    SMFL_CHECK(folded.ok());
    return std::move(folded).value();
  };
  const Matrix batch1 = run_batch(1);
  const Matrix batch4 = run_batch(4);

  // Thread count must not change a single bit.
  for (Index i = 0; i < batch1.rows(); ++i) {
    for (Index j = 0; j < batch1.cols(); ++j) {
      EXPECT_EQ(batch1(i, j), batch4(i, j)) << "at " << i << "," << j;
    }
  }

  // Batched serving must equal the strict row-at-a-time path exactly.
  std::vector<bool> observed_row(static_cast<size_t>(x.cols()));
  for (Index i = 0; i < fresh; ++i) {
    la::Vector row(x.cols());
    for (Index j = 0; j < x.cols(); ++j) {
      row[j] = x(i, j);
      observed_row[static_cast<size_t>(j)] = observed.Contains(i, j);
    }
    auto completed = FoldInRow(f.model, row, observed_row);
    ASSERT_TRUE(completed.ok());
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(batch1(i, j), (*completed)[j]) << "row " << i << " col " << j;
    }
  }
}

// ------------------------------------------------- per-row fault isolation

TEST(FoldInServingTest, BadRowsDegradeInsteadOfAbortingTheBatch) {
  Fitted f = TrainOnPrefix(200, 170, 5);
  const Index fresh = 4;
  Matrix x;
  Mask observed;
  MakeFreshBatch(f, fresh, &x, &observed);
  // Row 1: nothing observed. Row 2: one observed cell corrupted to NaN.
  for (Index j = 0; j < x.cols(); ++j) observed.Set(1, j, false);
  x(2, 3) = std::nan("");
  observed.Set(2, 3, true);

  FoldInReport report;
  auto folded = FoldIn(f.model, x, observed, FoldInOptions{}, &report);
  ASSERT_TRUE(folded.ok());
  ASSERT_EQ(report.rows.size(), static_cast<size_t>(fresh));

  EXPECT_TRUE(report.rows[0].status.ok());
  EXPECT_EQ(report.rows[0].served_by, FoldInTier::kLandmarkKernel);
  EXPECT_GT(report.rows[0].iterations, 0);

  // The all-missing row is served by the column-mean tier, not an error.
  EXPECT_FALSE(report.rows[1].status.ok());
  EXPECT_EQ(report.rows[1].served_by, FoldInTier::kColumnMean);
  EXPECT_EQ(report.rows[1].iterations, 0);

  // The NaN cell is dropped from the solve and replaced in the output.
  EXPECT_FALSE(report.rows[2].status.ok());
  EXPECT_EQ(report.rows[2].status.code(), StatusCode::kDataError);
  EXPECT_NE(report.rows[2].served_by, FoldInTier::kColumnMean);

  for (Index i = 0; i < fresh; ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_TRUE(std::isfinite((*folded)(i, j))) << i << "," << j;
    }
  }
  EXPECT_EQ(report.DegradedCount(), 2);
  EXPECT_EQ(report.CountTier(FoldInTier::kColumnMean), 1);
  EXPECT_NE(report.ToString().find("column-mean"), std::string::npos);

  // The strict single-row API still rejects the same faults.
  la::Vector row(x.cols(), 0.5);
  std::vector<bool> none(static_cast<size_t>(x.cols()), false);
  EXPECT_FALSE(FoldInRow(f.model, row, none).ok());
}

// ------------------------------------------------- kernel width guard

TEST(FoldInServingTest, KernelWidthGuardedForDegenerateLandmarks) {
  // K = 1: no pairwise distance exists; the width must not collapse.
  Matrix one(1, 2);
  one(0, 0) = 0.3;
  one(0, 1) = 0.7;
  EXPECT_GE(FoldInKernelWidth(one), 1e-2);
  // Coincident landmarks: same guard.
  Matrix coincident(3, 2, 0.5);
  EXPECT_GE(FoldInKernelWidth(coincident), 1e-2);
  // Two distinct landmarks: mean nearest squared distance, as before.
  Matrix two{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(FoldInKernelWidth(two), 2.0);

  // A K = 1 model end-to-end: the fold still serves on the kernel tier.
  SmflModel model;
  model.v = Matrix(1, 5, 0.4);
  model.u = Matrix(3, 1, 0.9);
  model.landmarks = one;
  model.spatial_cols = 2;
  Matrix x(1, 5, 0.5);
  Mask observed(1, 5);
  observed.Set(0, 0);
  observed.Set(0, 1);
  FoldInReport report;
  auto folded = FoldIn(model, x, observed, FoldInOptions{}, &report);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(report.rows[0].served_by, FoldInTier::kLandmarkKernel);
  for (Index j = 0; j < 5; ++j) {
    EXPECT_TRUE(std::isfinite((*folded)(0, j)));
  }
}

// ------------------------------------------------- kernel spatial clamp

// DeserializeModel accepts a landmark block wider than spatial_cols (any
// block that fits in V). Fold-in must then run the landmark kernel over
// the first spatial_cols coordinates only: they alone pick the tier and
// shape the initial coefficients.
TEST(FoldInServingTest, WideLandmarksUseOnlySpatialCoordinates) {
  Fitted f = TrainOnPrefix(200, 170, 9);
  f.model.spatial_cols = 1;  // the landmarks stay K x 2
  auto loaded = DeserializeModel(SerializeModel(f.model));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SmflModel& model = *loaded;
  ASSERT_GT(model.landmarks.cols(), model.spatial_cols);

  const Index fresh = 12;
  Matrix x;
  Mask observed;
  MakeFreshBatch(f, fresh, &x, &observed);
  // Rows 0-3 observe the second landmark coordinate but not the first.
  for (Index i = 0; i < 4; ++i) observed.Set(i, 0, false);

  // No multiplicative steps: each served row is its kernel init times V.
  FoldInOptions options;
  options.max_iterations = 0;
  FoldInReport report;
  auto folded = FoldIn(model, x, observed, options, &report);
  ASSERT_TRUE(folded.ok());

  const Index k = model.v.rows();
  const double sigma2 = FoldInKernelWidth(model.landmarks);
  std::vector<bool> observed_row(static_cast<size_t>(x.cols()));
  for (Index i = 0; i < fresh; ++i) {
    const bool kernel = observed.Contains(i, 0);
    EXPECT_EQ(report.rows[static_cast<size_t>(i)].served_by,
              kernel ? FoldInTier::kLandmarkKernel : FoldInTier::kUniformU)
        << "row " << i;
    la::Vector u(k, 1.0 / static_cast<double>(k));
    if (kernel) {
      double sum = 0.0;
      for (Index c = 0; c < k; ++c) {
        const double d = x(i, 0) - model.landmarks(c, 0);
        u[c] = std::exp(-d * d / (2.0 * sigma2)) + 1e-4;
        sum += u[c];
      }
      for (Index c = 0; c < k; ++c) u[c] /= sum;
    }
    la::Vector row(x.cols());
    for (Index j = 0; j < x.cols(); ++j) {
      row[j] = x(i, j);
      observed_row[static_cast<size_t>(j)] = observed.Contains(i, j);
    }
    auto completed = FoldInRow(model, row, observed_row, options);
    ASSERT_TRUE(completed.ok());
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_EQ((*folded)(i, j), (*completed)[j]) << "row " << i << " col " << j;
      if (observed.Contains(i, j)) continue;
      double expected = 0.0;
      for (Index c = 0; c < k; ++c) expected += u[c] * model.v(c, j);
      EXPECT_NEAR((*folded)(i, j), expected, 1e-12)
          << "row " << i << " col " << j;
    }
  }
}

// ------------------------------------------------- model round-trip

TEST(FoldInServingTest, SaveLoadServeRoundTripIsBitwise) {
  Fitted f = TrainOnPrefix(200, 170, 7);
  auto restored = DeserializeModel(SerializeModel(f.model));
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->normalizer.has_value());
  for (Index j = 0; j < f.truth.cols(); ++j) {
    EXPECT_EQ(restored->normalizer->ColMin(j), f.model.normalizer->ColMin(j));
    EXPECT_EQ(restored->normalizer->ColMax(j), f.model.normalizer->ColMax(j));
  }

  Matrix x;
  Mask observed;
  MakeFreshBatch(f, 12, &x, &observed);
  auto in_process = FoldIn(f.model, x, observed);
  auto reloaded = FoldIn(*restored, x, observed);
  ASSERT_TRUE(in_process.ok());
  ASSERT_TRUE(reloaded.ok());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_EQ((*in_process)(i, j), (*reloaded)(i, j)) << i << "," << j;
    }
  }
}

// Reassembles the legacy text body from a v3 container: the concatenated
// section payloads ARE the v1/v2-shaped body (with a v3 version header).
std::string LegacyBody(const std::string& serialized) {
  auto sections = ParseSections(serialized);
  SMFL_CHECK(sections.ok());
  std::string body;
  for (const Section& s : *sections) body += s.payload;
  return body;
}

TEST(FoldInServingTest, V1ModelFilesStillLoadWithoutNormalizer) {
  Fitted f = TrainOnPrefix(160, 140, 9);
  // Hand-build the v1 form: bare text body, old version header, no
  // normalizer block.
  std::string v1 = LegacyBody(SerializeModel(f.model));
  const size_t norm_pos = v1.find("\nnormalizer ");
  const size_t u_pos = v1.find("\nU ");
  ASSERT_NE(norm_pos, std::string::npos);
  ASSERT_NE(u_pos, std::string::npos);
  v1.erase(norm_pos, u_pos - norm_pos);
  const size_t ver_pos = v1.find("smfl-model 3");
  ASSERT_EQ(ver_pos, 0u);
  v1.replace(0, std::string("smfl-model 3").size(), "smfl-model 1");

  auto restored = DeserializeModel(v1);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored->normalizer.has_value());
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(restored->u, f.model.u), 0.0);
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(restored->v, f.model.v), 0.0);
  EXPECT_DOUBLE_EQ(la::MaxAbsDiff(restored->landmarks, f.model.landmarks),
                   0.0);
}

TEST(FoldInServingTest, CorruptDimensionsRejectedBeforeAllocation) {
  Fitted f = TrainOnPrefix(120, 100, 11);
  // Tamper with the bare text body (the v2-era attack surface: a hand-
  // edited or bit-rotted legacy file with no CRC protection).
  std::string good = LegacyBody(SerializeModel(f.model));
  // A hostile U header claiming astronomically many elements must be a
  // clean DataError, not an overflowed allocation.
  const size_t pos = good.find("\nU ");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = good.find('\n', pos + 1);
  std::string huge = good.substr(0, pos) + "\nU 88888888 88888888" +
                     good.substr(eol);
  auto result = DeserializeModel(huge);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataError);
  EXPECT_NE(result.status().message().find("implausible"),
            std::string::npos);
  // Same for a hostile trace header.
  std::string huge_trace = good;
  const size_t tpos = huge_trace.find("\ntrace ");
  ASSERT_NE(tpos, std::string::npos);
  const size_t teol = huge_trace.find('\n', tpos + 1);
  huge_trace.replace(tpos, teol - tpos, "\ntrace 999999999999");
  EXPECT_FALSE(DeserializeModel(huge_trace).ok());
}

// ------------------------------------------------- CLI apply round-trip

TEST(FoldInServingTest, ApplyServesInTrainingNormalizationSpace) {
  // Train on the full lake table; serve a SINGLE fresh row whose column
  // "ranges" are degenerate — exactly the case where the old per-batch
  // normalizer re-fit destroyed the signal.
  auto dataset = data::MakeLakeLike(200, 21);
  ASSERT_TRUE(dataset.ok());
  const Index m = dataset->table.NumCols();
  const std::string train_path = TempPath("smfl_serving_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, dataset->table).ok());
  const std::string model_path = TempPath("smfl_serving_model.txt");
  std::string output;
  ASSERT_TRUE(::smfl::cli::Run(
                  MakeFlags({"fit", "--in=" + train_path,
                             "--model=" + model_path, "--rank=6"}),
                  &output)
                  .ok());

  // One fresh row = row 190 of the same generator, with two attribute
  // cells hidden.
  auto fresh_source = data::MakeLakeLike(200, 21);
  ASSERT_TRUE(fresh_source.ok());
  Matrix fresh_values(1, m);
  Mask fresh_observed(1, m, true);
  for (Index j = 0; j < m; ++j) {
    fresh_values(0, j) = fresh_source->table.values()(190, j);
  }
  fresh_observed.Set(0, 3, false);
  fresh_observed.Set(0, 5, false);
  auto fresh_table = data::Table::Create(dataset->table.column_names(),
                                         fresh_values, 2);
  ASSERT_TRUE(fresh_table.ok());
  const std::string fresh_path = TempPath("smfl_serving_fresh.csv");
  ASSERT_TRUE(
      data::WriteCsv(fresh_path, *fresh_table, fresh_observed).ok());

  const std::string out_path = TempPath("smfl_serving_out.csv");
  output.clear();
  Status status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + fresh_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(output.find("serving tiers:"), std::string::npos);

  data::CsvReadOptions read_options;
  read_options.spatial_cols = 2;
  auto served = data::ReadCsv(out_path, read_options);
  ASSERT_TRUE(served.ok());

  // Expected: fold-in in the TRAINING normalization space.
  auto model = LoadModel(model_path);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->normalizer.has_value());
  Matrix normalized = model->normalizer->Transform(fresh_values);
  for (Index j = 0; j < m; ++j) {
    if (!fresh_observed.Contains(0, j)) continue;
    normalized(0, j) = std::min(1.0, std::max(0.0, normalized(0, j)));
  }
  normalized = data::ApplyMask(normalized, fresh_observed);
  auto folded = FoldIn(*model, normalized, fresh_observed);
  ASSERT_TRUE(folded.ok());
  Matrix expected = model->normalizer->InverseTransform(*folded);
  expected = data::CombineByMask(fresh_values, expected, fresh_observed);
  for (Index j = 0; j < m; ++j) {
    EXPECT_NEAR(served->table.values()(0, j), expected(0, j),
                1e-6 * std::max(1.0, std::fabs(expected(0, j))))
        << "col " << j;
  }

  // The OLD path — re-fitting the normalizer on the single fresh row —
  // gives systematically different, wrong values: observed columns
  // become constant (range [v, v+1]) and hidden columns lose their units
  // entirely, so the imputations land nowhere near the truth.
  auto stale = data::MinMaxNormalizer::Fit(fresh_values, fresh_observed);
  ASSERT_TRUE(stale.ok());
  Matrix stale_norm =
      data::ApplyMask(stale->Transform(fresh_values), fresh_observed);
  auto stale_folded = FoldIn(*model, stale_norm, fresh_observed);
  ASSERT_TRUE(stale_folded.ok());
  Matrix stale_out = stale->InverseTransform(*stale_folded);
  stale_out = data::CombineByMask(fresh_values, stale_out, fresh_observed);
  double new_err = 0.0, old_err = 0.0;
  for (Index j : {Index{3}, Index{5}}) {
    const double truth = fresh_values(0, j);
    new_err = std::max(new_err, std::fabs(expected(0, j) - truth));
    old_err = std::max(old_err, std::fabs(stale_out(0, j) - truth));
    // Proves the two paths disagree — the bug was real.
    EXPECT_GT(std::fabs(stale_out(0, j) - expected(0, j)), 1e-3)
        << "col " << j;
  }
  // And the training-space path is the accurate one.
  EXPECT_LT(new_err, old_err);

  std::remove(train_path.c_str());
  std::remove(model_path.c_str());
  std::remove(fresh_path.c_str());
  std::remove(out_path.c_str());
}

TEST(FoldInServingTest, ApplyValidatesSpatialAgainstModel) {
  auto dataset = data::MakeLakeLike(120, 31);
  ASSERT_TRUE(dataset.ok());
  const std::string train_path = TempPath("smfl_spatial_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, dataset->table).ok());
  const std::string model_path = TempPath("smfl_spatial_model.txt");
  std::string output;
  ASSERT_TRUE(::smfl::cli::Run(MakeFlags({"fit", "--in=" + train_path,
                                          "--model=" + model_path,
                                          "--rank=4"}),
                               &output)
                  .ok());
  // A contradictory --spatial must be a clear error, not silent
  // mislabeling of the output's coordinate columns.
  Status status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + train_path, "--model=" + model_path,
                 "--out=" + TempPath("smfl_spatial_out.csv"),
                 "--spatial=3"}),
      &output);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("spatial"), std::string::npos);
  // Without the flag, the model's spatial column count is used.
  output.clear();
  const std::string out_path = TempPath("smfl_spatial_out.csv");
  status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + train_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::remove(train_path.c_str());
  std::remove(model_path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace smfl::core
