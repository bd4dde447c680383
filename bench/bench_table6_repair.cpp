// Reproduces Table VI: repair RMS error of Baran / HoloClean / NMF / SMF /
// SMFL at 10% cell error rate (errors in all columns; dirty cells given).
//
// Expected shape (paper): SMFL < SMF < {HoloClean, Baran, NMF}; Baran worst.

#include "bench/bench_util.h"
#include "src/exp/report.h"
#include "src/repair/repairer.h"

using namespace smfl;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchConfig(argc, argv);
  const auto methods = repair::RegisteredRepairers();
  std::vector<std::string> columns = {"Dataset"};
  columns.insert(columns.end(), methods.begin(), methods.end());
  exp::ReportTable table(columns);

  for (const std::string& dataset_name : bench::PaperDatasets()) {
    auto prepared = bench::ValueOrDie(
        exp::PrepareDataset(dataset_name, bench::RowsFor(config, dataset_name)));
    table.BeginRow(dataset_name);
    for (const std::string& method : methods) {
      auto repairer = bench::ValueOrDie(repair::MakeRepairer(method));
      exp::TrialOptions options;
      options.trials = config.trials;
      options.error_rate = 0.1;
      auto result = exp::RunRepairTrials(prepared, *repairer, options);
      if (result.ok()) {
        table.AddNumber(result->mean_rms);
      } else {
        table.AddCell("ERR");
      }
    }
  }
  table.Print("Table VI: repair RMS error (error rate 10%)");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
