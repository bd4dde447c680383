// Oracle for the masked update engine (src/mf/masked_mu.h): a dense
// reference solver written straight from the paper's Formulas 13/14 and
// the projected-gradient rule of §III-B1. Every product is a dense gemm
// (la::MatMulABt / la::MatMulAtB) over ApplyMask'd N×M buffers, so the
// reference reads like the formulas and shares no code path with the
// engine. The engine must match it bit for bit: step by step for NMF,
// SMF and SMFL under both update rules, and end to end through
// mf::FitNmf and core::FitSmflWithGraph, over 3 seeds × observed rates
// {5, 50, 95}% × threads {1, 4} × SIMD tiers {0, 1}.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/core/smfl.h"
#include "src/data/mask.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/la/simd.h"
#include "src/mf/masked_mu.h"
#include "src/mf/nmf.h"
#include "src/spatial/graph.h"

namespace smfl {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;

// ---------------------------------------------------------------------------
// Dense reference.

struct Problem {
  Matrix x_obs;  // R_Ω(X)
  Mask observed;
  const spatial::NeighborGraph* graph = nullptr;  // null: NMF
  double lambda = 0.0;
  Index col_begin = 0;  // first free column of V
};

Matrix UvObserved(const Problem& p, const Matrix& u, const Matrix& v) {
  return data::ApplyMask(la::MatMul(u, v), p.observed);  // R_Ω(UV)
}

double SquaredError(const Problem& p, const Matrix& u, const Matrix& v) {
  return data::MaskedSquaredError(p.x_obs, p.observed, UvObserved(p, u, v));
}

// Formula 13, or the projected-gradient U step when !mu. `param` is the
// denominator floor (mu) or the learning rate θ.
void RefUpdateU(const Problem& p, bool mu, double param, Matrix& u,
                const Matrix& v) {
  const Matrix uv = UvObserved(p, u, v);
  const bool graph = p.graph != nullptr && p.lambda > 0.0;
  if (mu) {
    Matrix num = la::MatMulABt(p.x_obs, v);  // R_Ω(X)Vᵀ
    Matrix den = la::MatMulABt(uv, v);       // R_Ω(UV)Vᵀ
    if (graph) {
      Matrix du = p.graph->MultiplyD(u);
      Matrix wu = p.graph->MultiplyW(u);
      du *= p.lambda;
      wu *= p.lambda;
      num += du;
      den += wu;
    }
    for (Index e = 0; e < u.size(); ++e) {
      u.data()[e] *= num.data()[e] / std::max(den.data()[e], param);
    }
    return;
  }
  Matrix grad = la::MatMulABt(p.x_obs - uv, v);  // R_Ω(X − UV)Vᵀ
  if (graph) {
    Matrix lu = p.graph->MultiplyW(u);  // L U = W U − D U
    lu -= p.graph->MultiplyD(u);
    lu *= p.lambda;
    grad -= lu;
  }
  grad *= 2.0 * param;
  u += grad;
  for (Index e = 0; e < u.size(); ++e) {
    u.data()[e] = std::max(u.data()[e], 0.0);
  }
}

// Formula 14, or the projected-gradient V step, over columns
// [col_begin, M).
void RefUpdateV(const Problem& p, bool mu, double param, const Matrix& u,
                Matrix& v) {
  const Matrix uv = UvObserved(p, u, v);
  const Matrix num = la::MatMulAtB(u, p.x_obs);  // UᵀR_Ω(X)
  const Matrix den = la::MatMulAtB(u, uv);       // UᵀR_Ω(UV)
  for (Index r = 0; r < v.rows(); ++r) {
    for (Index j = p.col_begin; j < v.cols(); ++j) {
      if (mu) {
        v(r, j) *= num(r, j) / std::max(den(r, j), param);
      } else {
        const double g = 2.0 * param * (num(r, j) - den(r, j));
        v(r, j) = std::max(0.0, v(r, j) + g);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fixtures.

constexpr Index kRows = 150, kCols = 14, kSpatial = 2, kRank = 4;
constexpr int kIterations = 8;
constexpr double kLearningRate = 1e-3;

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Index e = 0; e < m.size(); ++e) m.data()[e] = rng.Uniform(0.01, 1.0);
  return m;
}

Mask RandomMask(uint64_t seed, double rate) {
  Rng rng(seed);
  Mask mask(kRows, kCols);
  for (Index i = 0; i < kRows; ++i) {
    for (Index j = 0; j < kCols; ++j) mask.Set(i, j, rng.Uniform() < rate);
  }
  return mask;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b,
                        const std::string& label) {
  ASSERT_TRUE(a.SameShape(b)) << label;
  for (Index e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a.data()[e], b.data()[e]) << label << " at flat index " << e;
  }
}

// Runs body(label, x, observed, graph) for every seed × rate × threads ×
// SIMD combination, with the thread count and tier pinned around it.
template <typename Body>
void ForEachCase(Body&& body) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const Matrix x = RandomMatrix(kRows, kCols, 100 + seed);
    auto graph =
        spatial::NeighborGraph::Build(x.Block(0, 0, kRows, kSpatial), 3);
    ASSERT_TRUE(graph.ok());
    for (double rate : {0.05, 0.5, 0.95}) {
      const Mask observed = RandomMask(200 + seed, rate);
      for (int threads : {1, 4}) {
        parallel::ScopedParallelism scoped_threads(threads);
        for (int simd : {0, 1}) {
          la::simd::ScopedSimd scoped_simd(simd);
          const std::string label =
              "seed " + std::to_string(seed) + " rate " + std::to_string(rate) +
              " threads " + std::to_string(threads) + " simd " +
              std::to_string(simd);
          body(label, x, observed, *graph);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tests.

TEST(MaskedMuOracleTest, StepsMatchDenseReference) {
  ForEachCase([](const std::string& label, const Matrix& x,
                 const Mask& observed, const spatial::NeighborGraph& graph) {
    struct Model {
      const char* name;
      bool graph;
      Index col_begin;
    };
    for (const Model& model : {Model{"NMF", false, 0}, Model{"SMF", true, 0},
                               Model{"SMFL", true, kSpatial}}) {
      for (bool mu : {true, false}) {
        const std::string what = label + " " + model.name +
                                 (mu ? " multiplicative" : " gradient");
        Problem p;
        p.x_obs = data::ApplyMask(x, observed);
        p.observed = observed;
        p.graph = model.graph ? &graph : nullptr;
        p.lambda = model.graph ? 0.5 : 0.0;
        p.col_begin = model.col_begin;
        const mf::GraphTerm term{p.graph, p.lambda};
        const double param = mu ? mf::kDivEps : kLearningRate;

        Matrix ref_u = RandomMatrix(kRows, kRank, 7);
        Matrix ref_v = RandomMatrix(kRank, kCols, 8);
        Matrix u = ref_u, v = ref_v;
        mf::MaskedMuEngine engine(data::ObservedIndex::FromMask(observed, x),
                                  model.col_begin);
        engine.Reconstruct(u, v);
        ASSERT_EQ(engine.SquaredError(), SquaredError(p, u, v)) << what;
        for (int it = 0; it < kIterations; ++it) {
          RefUpdateU(p, mu, param, ref_u, ref_v);
          RefUpdateV(p, mu, param, ref_u, ref_v);
          if (mu) {
            engine.UpdateUMultiplicative(term, param, u, v);
            engine.UpdateVMultiplicative(u, param, v);
          } else {
            engine.UpdateUGradient(term, param, u, v);
            engine.UpdateVGradient(u, param, v);
          }
          engine.Reconstruct(u, v);
          const std::string at = what + " iteration " + std::to_string(it);
          ExpectBitwiseEqual(u, ref_u, at + " U");
          ExpectBitwiseEqual(v, ref_v, at + " V");
          ASSERT_EQ(engine.SquaredError(), SquaredError(p, ref_u, ref_v)) << at;
        }
      }
    }
  });
}

TEST(MaskedMuOracleTest, FitNmfMatchesDenseReference) {
  ForEachCase([](const std::string& label, const Matrix& x,
                 const Mask& observed, const spatial::NeighborGraph&) {
    mf::NmfOptions options;
    options.rank = kRank;
    options.max_iterations = kIterations;
    options.tolerance = 0.0;
    options.seed = 11;
    auto fit = mf::FitNmf(x, observed, options);
    ASSERT_TRUE(fit.ok()) << label << ": " << fit.status().ToString();

    Problem p;
    p.x_obs = data::ApplyMask(x, observed);
    p.observed = observed;
    Rng rng(options.seed);  // FitNmf's initialization: U, then V
    Matrix u(kRows, kRank), v(kRank, kCols);
    for (Index e = 0; e < u.size(); ++e) u.data()[e] = rng.Uniform(0.01, 1.0);
    for (Index e = 0; e < v.size(); ++e) v.data()[e] = rng.Uniform(0.01, 1.0);
    std::vector<double> trace{SquaredError(p, u, v)};
    for (int it = 0; it < kIterations; ++it) {
      RefUpdateU(p, true, mf::kDivEps, u, v);
      RefUpdateV(p, true, mf::kDivEps, u, v);
      trace.push_back(SquaredError(p, u, v));
      if (mf::RelativeImprovementBelow(trace, options.tolerance)) break;
    }
    ExpectBitwiseEqual(fit->u, u, label + " NMF U");
    ExpectBitwiseEqual(fit->v, v, label + " NMF V");
    EXPECT_EQ(fit->report.objective_trace, trace) << label;
  });
}

TEST(MaskedMuOracleTest, FitSmflMatchesDenseReference) {
  ForEachCase([](const std::string& label, const Matrix& x,
                 const Mask& observed, const spatial::NeighborGraph& graph) {
    for (bool landmarks : {true, false}) {
      for (bool mu : {true, false}) {
        const std::string what = label + (landmarks ? " SMFL" : " SMF") +
                                 (mu ? " multiplicative" : " gradient");
        core::SmflOptions options;
        options.rank = kRank;
        options.use_landmarks = landmarks;
        options.update = mu ? core::UpdateMethod::kMultiplicative
                            : core::UpdateMethod::kGradientDescent;
        options.learning_rate = kLearningRate;
        options.tolerance = 0.0;
        options.guard.enabled = false;  // the reference has no guard
        options.max_iterations = 0;     // the initialization alone
        auto init =
            core::FitSmflWithGraph(x, observed, kSpatial, graph, options);
        ASSERT_TRUE(init.ok()) << what << ": " << init.status().ToString();
        options.max_iterations = kIterations;
        auto fit =
            core::FitSmflWithGraph(x, observed, kSpatial, graph, options);
        ASSERT_TRUE(fit.ok()) << what << ": " << fit.status().ToString();

        Problem p;
        p.x_obs = data::ApplyMask(x, observed);
        p.observed = observed;
        p.graph = &graph;
        p.lambda = options.lambda;
        p.col_begin = landmarks ? kSpatial : 0;
        const double param = mu ? mf::kDivEps : kLearningRate;
        Matrix u = init->u, v = init->v;
        const auto objective = [&] {
          return SquaredError(p, u, v) +
                 p.lambda * graph.LaplacianQuadraticForm(u);
        };
        std::vector<double> trace{objective()};
        for (int it = 0; it < kIterations; ++it) {
          RefUpdateU(p, mu, param, u, v);
          RefUpdateV(p, mu, param, u, v);
          trace.push_back(objective());
          if (mf::RelativeImprovementBelow(trace, options.tolerance)) break;
        }
        ExpectBitwiseEqual(fit->u, u, what + " U");
        ExpectBitwiseEqual(fit->v, v, what + " V");
        EXPECT_EQ(fit->report.objective_trace, trace) << what;
      }
    }
  });
}

}  // namespace
}  // namespace smfl
