#include "src/mf/nmf.h"

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/mf/masked_mu.h"

namespace smfl::mf {

Matrix NmfModel::Reconstruct() const { return la::MatMul(u, v); }

double MaskedReconstructionError(const Matrix& x, const Mask& observed,
                                 const Matrix& u, const Matrix& v) {
  return data::MaskedSquaredError(x, observed,
                                  data::MaskedReconstruct(u, v, observed));
}

Result<NmfModel> FitNmf(const Matrix& x, const Mask& observed,
                        const NmfOptions& options) {
  parallel::ScopedParallelism scoped_threads(options.threads);
  const Index n = x.rows(), m = x.cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("FitNmf: empty matrix");
  if (observed.rows() != n || observed.cols() != m) {
    return Status::InvalidArgument("FitNmf: mask shape mismatch");
  }
  if (options.rank <= 0) {
    return Status::InvalidArgument("FitNmf: rank must be positive");
  }
  if (x.HasNonFinite()) {
    return Status::NumericError("FitNmf: input contains NaN/Inf");
  }
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      if (observed.Contains(i, j) && x(i, j) < 0.0) {
        return Status::InvalidArgument(
            "FitNmf: observed entries must be nonnegative (normalize first)");
      }
    }
  }
  const Index k = options.rank;
  Rng rng(options.seed);
  NmfModel model;
  model.u = Matrix(n, k);
  model.v = Matrix(k, m);
  for (Index i = 0; i < model.u.size(); ++i) {
    model.u.data()[i] = rng.Uniform(0.01, 1.0);
  }
  for (Index i = 0; i < model.v.size(); ++i) {
    model.v.data()[i] = rng.Uniform(0.01, 1.0);
  }

  // NMF is the engine with no graph term and every V column free; unlike
  // SMFL it runs without a TrainingGuard.
  MaskedMuEngine engine(data::ObservedIndex::FromMask(observed, x),
                        /*col_begin=*/0);
  FitReport& report = model.report;
  // R_Ω(UV) for the current iterates: the end-of-iteration objective
  // evaluation refreshes it and the next U update consumes it.
  engine.Reconstruct(model.u, model.v);
  report.objective_trace.push_back(engine.SquaredError());
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    report.iterations = iter + 1;
    engine.UpdateUMultiplicative(GraphTerm{}, kDivEps, model.u, model.v);
    engine.UpdateVMultiplicative(model.u, kDivEps, model.v);
    engine.Reconstruct(model.u, model.v);
    report.objective_trace.push_back(engine.SquaredError());
    if (RelativeImprovementBelow(report.objective_trace, options.tolerance)) {
      report.converged = true;
      break;
    }
  }
  if (model.u.HasNonFinite() || model.v.HasNonFinite()) {
    return Status::NumericError("FitNmf: factorization diverged");
  }
  return model;
}

Matrix ImputeWithModel(const Matrix& x, const Mask& observed,
                       const NmfModel& model) {
  return data::CombineByMask(x, model.Reconstruct(), observed);
}

}  // namespace smfl::mf
