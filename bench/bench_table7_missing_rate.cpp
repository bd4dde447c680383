// Reproduces Table VII: imputation RMS of NMF / SMF / SMFL as the missing
// rate grows from 10% to 50%, on the Economic, Farm, and Lake datasets.
//
// Expected shape (paper): RMS grows with the missing rate for SMF/SMFL
// (NMF is flat-bad); SMFL <= SMF <= NMF at every rate.

#include "bench/bench_util.h"
#include "src/exp/report.h"
#include "src/impute/mf_imputers.h"

using namespace smfl;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchConfig(argc, argv);
  const std::vector<double> rates = {0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<std::string> columns = {"Dataset", "Algorithm"};
  for (double r : rates) {
    columns.push_back(std::to_string(static_cast<int>(r * 100)) + "%");
  }
  exp::ReportTable table(columns);

  for (const char* dataset_name : {"economic", "farm", "lake"}) {
    auto prepared = bench::ValueOrDie(
        exp::PrepareDataset(dataset_name, bench::RowsFor(config, dataset_name)));
    const impute::NmfImputer nmf;
    const impute::SmfImputer smf;
    const impute::SmflImputer smfl;
    const impute::Imputer* methods[] = {&nmf, &smf, &smfl};
    for (const impute::Imputer* imputer : methods) {
      table.BeginRow(dataset_name);
      table.AddCell(imputer->name());
      for (double rate : rates) {
        exp::TrialOptions options;
        options.trials = config.trials;
        options.missing_rate = rate;
        auto result = exp::RunImputationTrials(prepared, *imputer, options);
        if (result.ok()) {
          table.AddNumber(result->mean_rms);
        } else {
          table.AddCell("ERR");
        }
      }
    }
  }
  table.Print("Table VII: imputation RMS vs missing rate (NMF/SMF/SMFL)");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
