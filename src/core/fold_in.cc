#include "src/core/fold_in.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/common/fit_progress.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/core/landmarks.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/mf/factorization.h"

namespace smfl::core {

namespace {

// Grain of the per-row solve loop. Each row runs up to max_iterations
// multiplicative updates, so chunks stay coarse enough that scheduling
// overhead is noise while the static partition keeps results independent
// of the thread count (see common/parallel.h).
constexpr Index kRowGrain = 4;

// Spatial width of the landmark kernel. Clamped because a loaded model's
// landmarks may be wider than its spatial_cols (DeserializeModel accepts
// any landmark block that fits in V).
Index KernelCols(const SmflModel& model) {
  return std::min(model.spatial_cols, model.landmarks.cols());
}

// Multiplicative updates of u restricted to the observed columns:
//   u_c <- u_c * num_c / (Σ_t (uV)_t v_ct)
// with the iteration-invariant numerator num_c = Σ_t x_t v_ct precomputed
// by the caller (one MatMulABt gemm covers a whole batch group). Every
// accumulation runs in the same ascending order as the gemm, so batched
// and row-at-a-time serving agree bitwise. Returns iterations run.
int SolveCoefficients(const Matrix& v_obs, const double* x_obs,
                      const double* num, const FoldInOptions& options,
                      la::Vector& u, std::vector<double>& recon) {
  const Index k = v_obs.rows();
  const Index nt = v_obs.cols();
  recon.resize(static_cast<size_t>(nt));
  double prev_err = std::numeric_limits<double>::infinity();
  int iterations = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Current reconstruction on observed columns.
    double err = 0.0;
    for (Index t = 0; t < nt; ++t) {
      double acc = 0.0;
      for (Index c = 0; c < k; ++c) acc += u[c] * v_obs(c, t);
      recon[static_cast<size_t>(t)] = acc;
      const double d = x_obs[t] - acc;
      err += d * d;
    }
    if (prev_err - err < options.tolerance * std::max(prev_err, 1e-300)) {
      break;
    }
    prev_err = err;
    ++iterations;
    for (Index c = 0; c < k; ++c) {
      double den = 0.0;
      for (Index t = 0; t < nt; ++t) {
        den += recon[static_cast<size_t>(t)] * v_obs(c, t);
      }
      u[c] *= num[c] / std::max(den, mf::kDivEps);
    }
  }
  return iterations;
}

// Completed row: usable observed cells copied, everything else u·V.
void ReconstructRow(const SmflModel& model, const la::Vector& u,
                    const double* row, const uint8_t* usable, double* out) {
  const Index m = model.v.cols();
  const Index k = model.v.rows();
  for (Index j = 0; j < m; ++j) {
    if (usable[j]) {
      out[j] = row[j];
      continue;
    }
    double acc = 0.0;
    for (Index c = 0; c < k; ++c) acc += u[c] * model.v(c, j);
    out[j] = acc;
  }
}

// Rows sharing one observed-column pattern: their numerators are one gemm.
struct ObsGroup {
  std::vector<Index> obs;   // usable observed columns, ascending
  std::vector<Index> rows;  // batch row indices with this pattern
  Matrix v_obs;             // K x |obs| gather of V's columns
  Matrix x_obs;             // |rows| x |obs| observed values
  Matrix num;               // |rows| x K = MatMulABt(x_obs, v_obs)
};

}  // namespace

const char* FoldInTierName(FoldInTier tier) {
  switch (tier) {
    case FoldInTier::kLandmarkKernel:
      return "landmark-kernel";
    case FoldInTier::kUniformU:
      return "uniform-u";
    case FoldInTier::kColumnMean:
      return "column-mean";
  }
  return "unknown";
}

Index FoldInReport::CountTier(FoldInTier tier) const {
  Index count = 0;
  for (const FoldInRowOutcome& outcome : rows) {
    if (outcome.served_by == tier) ++count;
  }
  return count;
}

Index FoldInReport::DegradedCount() const {
  Index count = 0;
  for (const FoldInRowOutcome& outcome : rows) {
    if (!outcome.status.ok()) ++count;
  }
  return count;
}

std::string FoldInReport::ToString() const {
  std::string s = std::to_string(rows.size()) + " rows: ";
  s += std::to_string(CountTier(FoldInTier::kLandmarkKernel)) +
       " landmark-kernel, ";
  s += std::to_string(CountTier(FoldInTier::kUniformU)) + " uniform-u, ";
  s += std::to_string(CountTier(FoldInTier::kColumnMean)) + " column-mean (" +
       std::to_string(DegradedCount()) + " degraded)";
  return s;
}

double FoldInKernelWidth(const Matrix& landmarks) {
  const Index k = landmarks.rows();
  const Index l = landmarks.cols();
  double sum = 0.0;
  Index finite = 0;
  for (Index c = 0; c < k; ++c) {
    double best = std::numeric_limits<double>::infinity();
    for (Index c2 = 0; c2 < k; ++c2) {
      if (c2 == c) continue;
      best = std::min(best, la::SquaredDistance(landmarks.Row(c),
                                                landmarks.Row(c2)));
    }
    if (std::isfinite(best)) {
      sum += best;
      ++finite;
    }
  }
  if (finite == 0 || sum <= 0.0) {
    // K = 1 (or coincident landmarks): no pairwise spread to measure.
    // Landmarks live in normalized [0,1]^L, where the mean squared
    // distance between uniform points is L/6 — a usable spatial scale,
    // unlike the 1e-8 the degenerate average would produce.
    return std::max(static_cast<double>(l) / 6.0, 1e-2);
  }
  return std::max(sum / static_cast<double>(k), 1e-8);
}

Result<la::Vector> FoldInRow(const SmflModel& model, const la::Vector& row,
                             const std::vector<bool>& observed_row,
                             const FoldInOptions& options) {
  const Index m = model.v.cols();
  const Index k = model.v.rows();
  if (k == 0 || m == 0) {
    return Status::FailedPrecondition("FoldInRow: empty model");
  }
  if (row.size() != m ||
      static_cast<Index>(observed_row.size()) != m) {
    return Status::InvalidArgument("FoldInRow: row width mismatch");
  }
  std::vector<Index> obs;
  std::vector<uint8_t> usable(static_cast<size_t>(m), 0);
  for (Index j = 0; j < m; ++j) {
    if (observed_row[static_cast<size_t>(j)]) {
      if (row[j] < 0.0) {
        return Status::InvalidArgument(
            "FoldInRow: observed entries must be nonnegative");
      }
      if (!std::isfinite(row[j])) {
        return Status::NumericError("FoldInRow: non-finite observed entry");
      }
      obs.push_back(j);
      usable[static_cast<size_t>(j)] = 1;
    }
  }
  if (obs.empty()) {
    return Status::InvalidArgument("FoldInRow: no observed entries");
  }

  SMFL_COUNTER_INC("foldin.single_row_calls");

  // Same machinery as the batch path, on a group of one row, so the two
  // entry points are bitwise identical for valid rows.
  const Index nt = static_cast<Index>(obs.size());
  Matrix v_obs(k, nt);
  Matrix x_obs(1, nt);
  for (Index t = 0; t < nt; ++t) {
    for (Index c = 0; c < k; ++c) v_obs(c, t) = model.v(c, obs[t]);
    x_obs(0, t) = row[obs[t]];
  }
  const Matrix num = la::MatMulABt(x_obs, v_obs);

  la::Vector u(k, 1.0 / static_cast<double>(k));
  if (model.landmarks.size() > 0) {
    LandmarkKernelWeights(model.landmarks, row.data(), obs, KernelCols(model),
                          FoldInKernelWidth(model.landmarks), u.data());
  }
  std::vector<double> recon;
  SolveCoefficients(v_obs, x_obs.Row(0).data(), num.Row(0).data(), options,
                    u, recon);

  la::Vector completed(m);
  ReconstructRow(model, u, row.data(), usable.data(), completed.data());
  return completed;
}

Result<Matrix> FoldIn(const SmflModel& model, const Matrix& x,
                      const Mask& observed, const FoldInOptions& options,
                      FoldInReport* report) {
  const Index n = x.rows();
  const Index m = x.cols();
  const Index k = model.v.rows();
  if (k == 0 || model.v.cols() == 0) {
    return Status::FailedPrecondition("FoldIn: empty model");
  }
  if (observed.rows() != n || observed.cols() != m) {
    return Status::InvalidArgument("FoldIn: mask shape mismatch");
  }
  if (m != model.v.cols()) {
    return Status::InvalidArgument("FoldIn: column count mismatch");
  }
  Matrix out(n, m);
  std::vector<FoldInRowOutcome> outcomes(static_cast<size_t>(n));
  if (n == 0) {
    if (report) report->rows.clear();
    return out;
  }
  SMFL_TRACE_SPAN("foldin.batch");
  const bool batch_telemetry = telemetry::Enabled();
  const int64_t batch_t0 = batch_telemetry ? telemetry::NowMicros() : 0;

  // Per-row validation. Non-finite or negative observed cells are dropped
  // from that row's solve (and replaced by the reconstruction in the
  // output) instead of aborting the whole batch; the fault is recorded.
  std::vector<uint8_t> usable(static_cast<size_t>(n * m), 0);
  for (Index i = 0; i < n; ++i) {
    FoldInRowOutcome& outcome = outcomes[static_cast<size_t>(i)];
    outcome.row = i;
    Index observed_count = 0, dropped = 0, kept = 0;
    for (Index j = 0; j < m; ++j) {
      if (!observed.Contains(i, j)) continue;
      ++observed_count;
      const double v = x(i, j);
      if (!std::isfinite(v) || v < 0.0) {
        ++dropped;
        continue;
      }
      usable[static_cast<size_t>(i * m + j)] = 1;
      ++kept;
    }
    if (kept == 0) {
      outcome.served_by = FoldInTier::kColumnMean;
      outcome.status = Status::InvalidArgument(
          observed_count == 0
              ? "no observed entries; served by column-mean fallback"
              : "all observed entries non-finite or negative; served by "
                "column-mean fallback");
    } else if (dropped > 0) {
      outcome.status = Status::DataError(
          std::to_string(dropped) +
          " non-finite/negative observed cell(s) dropped from the solve");
    }
  }

  // Group solvable rows by usable-column pattern and fold each group's
  // iteration-invariant numerators into one gemm against the frozen V.
  // The CSR index over the usable cells serves both the grouping key (a
  // row's observed-column span, byte-viewed) and each group's column list
  // directly — no per-row rescans of the byte grid, and the key for a
  // sparse row is proportional to its observed count, not to m.
  const data::ObservedIndex usable_index =
      data::ObservedIndex::FromRowMajorBytes(n, m, usable.data());
  constexpr size_t kColumnMeanGroup = static_cast<size_t>(-1);
  std::unordered_map<std::string, size_t> group_of_pattern;
  std::vector<ObsGroup> groups;
  std::vector<size_t> row_group(static_cast<size_t>(n), kColumnMeanGroup);
  std::vector<Index> row_pos(static_cast<size_t>(n), 0);
  for (Index i = 0; i < n; ++i) {
    if (outcomes[static_cast<size_t>(i)].served_by ==
        FoldInTier::kColumnMean) {
      continue;
    }
    const std::span<const Index> row_cols = usable_index.RowCols(i);
    std::string pattern(reinterpret_cast<const char*>(row_cols.data()),
                        row_cols.size() * sizeof(Index));
    auto [it, inserted] =
        group_of_pattern.emplace(std::move(pattern), groups.size());
    if (inserted) {
      groups.emplace_back();
      ObsGroup& g = groups.back();
      g.obs.assign(row_cols.begin(), row_cols.end());
    }
    ObsGroup& g = groups[it->second];
    row_group[static_cast<size_t>(i)] = it->second;
    row_pos[static_cast<size_t>(i)] = static_cast<Index>(g.rows.size());
    g.rows.push_back(i);
  }
  for (ObsGroup& g : groups) {
    const Index nt = static_cast<Index>(g.obs.size());
    const Index nr = static_cast<Index>(g.rows.size());
    g.v_obs = Matrix(k, nt);
    for (Index t = 0; t < nt; ++t) {
      for (Index c = 0; c < k; ++c) g.v_obs(c, t) = model.v(c, g.obs[t]);
    }
    g.x_obs = Matrix(nr, nt);
    for (Index r = 0; r < nr; ++r) {
      for (Index t = 0; t < nt; ++t) {
        g.x_obs(r, t) = x(g.rows[static_cast<size_t>(r)], g.obs[t]);
      }
    }
    // num(r, c) = Σ_t x_obs(r, t) * v_obs(c, t), ascending t — the same
    // accumulation order as the scalar single-row loop.
    g.num = la::MatMulABt(g.x_obs, g.v_obs);
  }

  // Model-level precomputations shared by every row.
  const double sigma2 =
      model.landmarks.size() > 0 ? FoldInKernelWidth(model.landmarks) : 0.0;
  const Index kernel_cols = KernelCols(model);
  la::Vector mean_u = model.u.rows() > 0
                          ? la::ColMeans(model.u)
                          : la::Vector(k, 1.0 / static_cast<double>(k));

  // Per-row solves: independent rows, disjoint output regions, static
  // partition — bitwise identical at any thread count.
  parallel::ParallelFor(0, n, kRowGrain, [&](Index r0, Index r1) {
    std::vector<double> recon;
    // One enabled-check per chunk; per-row clock reads only when telemetry
    // is on, so the disabled serving path stays clock-free.
    const bool row_telemetry = telemetry::Enabled();
    for (Index i = r0; i < r1; ++i) {
      const int64_t row_t0 = row_telemetry ? telemetry::NowMicros() : 0;
      const uint8_t* urow = &usable[static_cast<size_t>(i * m)];
      const double* xrow = x.Row(i).data();
      double* orow = out.Row(i).data();
      FoldInRowOutcome& outcome = outcomes[static_cast<size_t>(i)];
      const size_t gi = row_group[static_cast<size_t>(i)];
      if (gi == kColumnMeanGroup) {
        // Column-mean tier: the model's average row, mean(U)·V.
        for (Index j = 0; j < m; ++j) {
          double acc = 0.0;
          for (Index c = 0; c < k; ++c) acc += mean_u[c] * model.v(c, j);
          orow[j] = acc;
        }
        continue;
      }
      const ObsGroup& g = groups[gi];
      la::Vector u(k, 1.0 / static_cast<double>(k));
      const bool kernel_init =
          sigma2 > 0.0 &&
          LandmarkKernelWeights(model.landmarks, xrow, usable_index.RowCols(i),
                                kernel_cols, sigma2, u.data());
      outcome.served_by = kernel_init ? FoldInTier::kLandmarkKernel
                                      : FoldInTier::kUniformU;
      const Index pos = row_pos[static_cast<size_t>(i)];
      outcome.iterations = SolveCoefficients(
          g.v_obs, g.x_obs.Row(pos).data(), g.num.Row(pos).data(), options,
          u, recon);
      ReconstructRow(model, u, xrow, urow, orow);
      if (row_telemetry) {
        SMFL_HISTOGRAM_RECORD(
            "foldin.row_solve_us",
            static_cast<double>(telemetry::NowMicros() - row_t0));
        SMFL_HISTOGRAM_RECORD("foldin.row_iterations",
                              static_cast<double>(outcome.iterations));
      }
    }
  });

  // Serving-side counters mirroring FoldInReport, so a metrics snapshot
  // answers "which tier served the traffic" without the in-process report.
  if (batch_telemetry) {
    Index landmark = 0, uniform = 0, column_mean = 0, degraded = 0;
    for (const FoldInRowOutcome& outcome : outcomes) {
      switch (outcome.served_by) {
        case FoldInTier::kLandmarkKernel:
          ++landmark;
          break;
        case FoldInTier::kUniformU:
          ++uniform;
          break;
        case FoldInTier::kColumnMean:
          ++column_mean;
          break;
      }
      if (!outcome.status.ok()) ++degraded;
    }
    SMFL_COUNTER_INC("foldin.batches");
    SMFL_COUNTER_ADD("foldin.rows", n);
    // Serving-side /statusz progress (src/obs): always on, relaxed, never
    // read by numeric code.
    GlobalFitProgress().foldin_batches.fetch_add(1, std::memory_order_relaxed);
    GlobalFitProgress().foldin_rows.fetch_add(static_cast<int64_t>(n),
                                              std::memory_order_relaxed);
    GlobalFitProgress().updates.fetch_add(1, std::memory_order_relaxed);
    SMFL_COUNTER_ADD("foldin.tier.landmark_kernel", landmark);
    SMFL_COUNTER_ADD("foldin.tier.uniform_u", uniform);
    SMFL_COUNTER_ADD("foldin.tier.column_mean", column_mean);
    SMFL_COUNTER_ADD("foldin.degraded_rows", degraded);
    const int64_t elapsed_us = telemetry::NowMicros() - batch_t0;
    if (elapsed_us > 0) {
      SMFL_GAUGE_SET("foldin.rows_per_sec",
                     static_cast<double>(n) * 1e6 /
                         static_cast<double>(elapsed_us));
    }
  }

  if (report) report->rows = std::move(outcomes);
  return out;
}

}  // namespace smfl::core
