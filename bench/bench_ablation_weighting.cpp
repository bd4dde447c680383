// Ablation: binary (Formula 3) vs heat-kernel edge weights in the
// similarity graph (DESIGN.md §4; the GNMF-style weighting of the paper's
// related work [9]).

#include "bench/bench_util.h"
#include "src/exp/report.h"
#include "src/impute/mf_imputers.h"

using namespace smfl;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchConfig(argc, argv);
  exp::ReportTable table({"Dataset", "SMF(binary)", "SMF(heat)",
                          "SMFL(binary)", "SMFL(heat)"});
  for (const std::string& dataset_name : bench::PaperDatasets()) {
    auto prepared = bench::ValueOrDie(exp::PrepareDataset(
        dataset_name, bench::RowsFor(config, dataset_name)));
    exp::TrialOptions trial;
    trial.trials = config.trials;
    table.BeginRow(dataset_name);
    for (bool landmarks : {false, true}) {
      for (core::GraphWeighting weighting :
           {core::GraphWeighting::kBinary,
            core::GraphWeighting::kHeatKernel}) {
        core::SmflOptions options;
        options.use_landmarks = landmarks;
        options.graph_weighting = weighting;
        auto result =
            landmarks
                ? exp::RunImputationTrials(
                      prepared, impute::SmflImputer(options), trial)
                : exp::RunImputationTrials(
                      prepared, impute::SmfImputer(options), trial);
        if (result.ok()) {
          table.AddNumber(result->mean_rms);
        } else {
          table.AddCell("ERR");
        }
      }
    }
  }
  table.Print("Ablation: binary vs heat-kernel graph weights");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
