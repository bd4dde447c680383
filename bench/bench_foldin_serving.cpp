// Serving bench (implementation extension, DESIGN.md §4): fold-in of fresh
// rows against a fitted model vs refitting SMFL from scratch on the union.
//
// Reports, per dataset: imputation RMS of (a) fold-in and (b) full refit on
// the fresh rows' hidden cells, plus per-row serving latency for both —
// the accuracy cost you pay for a ~1000x cheaper serving path.

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/core/fold_in.h"
#include "src/exp/metrics.h"
#include "src/exp/report.h"

using namespace smfl;
using data::Mask;
using la::Index;
using la::Matrix;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchConfig(argc, argv);
  (void)config;
  exp::ReportTable table({"Dataset", "RMS(fold-in)", "RMS(refit)",
                          "ms/row(fold-in)", "ms/row(refit)"});
  for (const std::string& dataset_name : bench::PaperDatasets()) {
    const Index total = exp::DefaultRowsFor(dataset_name);
    const Index train_rows = total * 3 / 4;
    const Index fresh = total - train_rows;
    auto prepared =
        bench::ValueOrDie(exp::PrepareDataset(dataset_name, total));

    // Fit once on the training block.
    Matrix train =
        prepared.truth.Block(0, 0, train_rows, prepared.truth.cols());
    core::SmflOptions options;
    auto model = bench::ValueOrDie(core::FitSmfl(
        train, Mask::AllSet(train_rows, train.cols()), 2, options));

    // Fresh rows with ~20% of their attribute cells hidden.
    Matrix x(fresh, prepared.truth.cols());
    Mask observed(fresh, prepared.truth.cols());
    Mask psi(fresh, prepared.truth.cols());
    Rng rng(99);
    for (Index i = 0; i < fresh; ++i) {
      for (Index j = 0; j < prepared.truth.cols(); ++j) {
        x(i, j) = prepared.truth(train_rows + i, j);
        const bool hide = j >= 2 && rng.Bernoulli(0.2);
        observed.Set(i, j, !hide);
        if (hide) {
          psi.Set(i, j);
          x(i, j) = 0.0;
        }
      }
    }
    Matrix truth_block =
        prepared.truth.Block(train_rows, 0, fresh, prepared.truth.cols());

    // (a) Fold-in.
    Stopwatch fold_watch;
    auto folded = bench::ValueOrDie(core::FoldIn(model, x, observed));
    const double fold_ms = fold_watch.ElapsedMillis();
    const double fold_rms =
        bench::ValueOrDie(exp::RmsOverMask(folded, truth_block, psi));

    // (b) Full refit on train + fresh.
    Matrix all(train_rows + fresh, prepared.truth.cols());
    Mask all_mask(train_rows + fresh, prepared.truth.cols());
    for (Index i = 0; i < train_rows; ++i) {
      for (Index j = 0; j < prepared.truth.cols(); ++j) {
        all(i, j) = prepared.truth(i, j);
        all_mask.Set(i, j);
      }
    }
    for (Index i = 0; i < fresh; ++i) {
      for (Index j = 0; j < prepared.truth.cols(); ++j) {
        all(train_rows + i, j) = x(i, j);
        all_mask.Set(train_rows + i, j, observed.Contains(i, j));
      }
    }
    Stopwatch refit_watch;
    auto refit = bench::ValueOrDie(core::SmflImpute(all, all_mask, 2, options));
    const double refit_ms = refit_watch.ElapsedMillis();
    Matrix refit_fresh =
        refit.Block(train_rows, 0, fresh, prepared.truth.cols());
    const double refit_rms =
        bench::ValueOrDie(exp::RmsOverMask(refit_fresh, truth_block, psi));

    table.BeginRow(dataset_name);
    table.AddNumber(fold_rms);
    table.AddNumber(refit_rms);
    table.AddNumber(fold_ms / static_cast<double>(fresh), 3);
    table.AddNumber(refit_ms / static_cast<double>(fresh), 3);
  }
  table.Print("Serving: fold-in vs full refit on fresh rows");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
