// Reproduces Table V: imputation RMS when the spatial information columns
// also lose values (10% missing rate over ALL columns).
//
// Expected shape (paper): everyone degrades vs Table IV; SMFL still lowest.

#include "bench/bench_util.h"
#include "src/exp/report.h"
#include "src/impute/registry.h"

using namespace smfl;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchConfig(argc, argv);
  const auto methods = impute::RegisteredImputers();
  std::vector<std::string> columns = {"Dataset"};
  columns.insert(columns.end(), methods.begin(), methods.end());
  exp::ReportTable table(columns);

  for (const std::string& dataset_name : bench::PaperDatasets()) {
    auto prepared = bench::ValueOrDie(
        exp::PrepareDataset(dataset_name, bench::RowsFor(config, dataset_name)));
    table.BeginRow(dataset_name);
    for (const std::string& method : methods) {
      auto imputer = bench::ValueOrDie(impute::MakeImputer(method));
      exp::TrialOptions options;
      options.trials = config.trials;
      options.missing_rate = 0.1;
      options.missing_in_spatial = true;
      auto result = exp::RunImputationTrials(prepared, *imputer, options);
      if (result.ok()) {
        table.AddNumber(result->mean_rms);
      } else {
        table.AddCell("ERR");
      }
    }
  }
  table.Print(
      "Table V: imputation RMS error with spatial information also missing");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
