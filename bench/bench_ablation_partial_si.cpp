// Ablation: handling of rows with unobserved spatial information
// (DESIGN.md §4 deviation note).
//
// The paper mean-fills missing SI cells before building the similarity
// matrix D, wiring those rows to arbitrary map-center neighbors. This
// library instead isolates fully-unknown rows and attaches partially-known
// rows by partial-coordinate distance. The bench compares both graph
// constructions under the Table V setting (missing values in SI too),
// holding everything else fixed via FitSmflWithGraph.

#include "bench/bench_util.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"
#include "src/core/smfl.h"
#include "src/exp/report.h"

using namespace smfl;
using la::Index;
using la::Matrix;

int main() {
  exp::ReportTable table(
      {"Dataset", "MeanFillGraph", "IsolationGraph(shipped)"});
  for (const std::string& dataset_name : bench::PaperDatasets()) {
    auto prepared = bench::ValueOrDie(
        exp::PrepareDataset(dataset_name, exp::DefaultRowsFor(dataset_name)));
    std::vector<std::string> names;
    for (Index j = 0; j < prepared.truth.cols(); ++j) {
      names.push_back("c" + std::to_string(j));
    }
    auto tbl = bench::ValueOrDie(
        data::Table::Create(names, prepared.truth, 2));
    double mean_fill_rms = 0.0, isolation_rms = 0.0;
    const int trials = 3;
    for (int t = 0; t < trials; ++t) {
      data::MissingInjectionOptions inject;
      inject.missing_rate = 0.1;
      inject.include_spatial_cols = true;  // the Table V setting
      inject.seed = 31337 + static_cast<uint64_t>(t);
      auto injection = bench::ValueOrDie(data::InjectMissing(tbl, inject));
      Matrix input = data::ApplyMask(prepared.truth, injection.observed);
      const data::Mask psi = injection.observed.Complement();

      core::SmflOptions options;
      // (a) Paper-style graph: mean-fill SI, connect everyone.
      {
        Matrix si = input.Block(0, 0, input.rows(), 2);
        data::Mask si_mask(input.rows(), 2);
        for (Index i = 0; i < input.rows(); ++i) {
          for (Index j = 0; j < 2; ++j) {
            si_mask.Set(i, j, injection.observed.Contains(i, j));
          }
        }
        Matrix si_filled = data::FillWithColumnMeans(si, si_mask);
        auto graph = bench::ValueOrDie(spatial::NeighborGraph::Build(
            si_filled, options.num_neighbors));
        auto model = bench::ValueOrDie(core::FitSmflWithGraph(
            input, injection.observed, 2, graph, options));
        Matrix completed =
            data::CombineByMask(input, model.Reconstruct(),
                                injection.observed);
        mean_fill_rms += bench::ValueOrDie(
            exp::RmsOverMask(completed, prepared.truth, psi));
      }
      // (b) Shipped construction (isolation + partial-distance edges).
      {
        auto completed = bench::ValueOrDie(
            core::SmflImpute(input, injection.observed, 2, options));
        isolation_rms += bench::ValueOrDie(
            exp::RmsOverMask(completed, prepared.truth, psi));
      }
    }
    table.BeginRow(dataset_name);
    table.AddNumber(mean_fill_rms / trials);
    table.AddNumber(isolation_rms / trials);
  }
  table.Print(
      "Ablation: graph construction for rows with missing SI (Table V "
      "setting)");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
