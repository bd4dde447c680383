// Ablation: oracle dirty masks vs statistical error detection
// (DESIGN.md §4.5 / src/repair/detector.h).
//
// The paper's repair experiments assume a detector (Raha) supplies the
// dirty-cell set Ψ. This bench runs the full detect->repair pipeline with
// our statistical detector and compares against the oracle mask, reporting
// the detector's precision/recall and the downstream repair RMS of SMFL
// under both masks. Whole-table RMS (not just Ψ) is reported for the
// detected case, since a detector can also flag clean cells.

#include "bench/bench_util.h"
#include "src/data/inject.h"
#include "src/exp/metrics.h"
#include "src/exp/report.h"
#include "src/repair/detector.h"
#include "src/repair/mf_repairers.h"

using namespace smfl;
using la::Index;
using la::Matrix;

int main() {
  exp::ReportTable table({"Dataset", "DetP", "DetR", "DetF1",
                          "RMS(oracle)", "RMS(detected)", "RMS(dirty)"});
  for (const std::string& dataset_name : bench::PaperDatasets()) {
    auto prepared = bench::ValueOrDie(
        exp::PrepareDataset(dataset_name, exp::DefaultRowsFor(dataset_name)));
    std::vector<std::string> names;
    for (Index j = 0; j < prepared.truth.cols(); ++j) {
      names.push_back("c" + std::to_string(j));
    }
    auto tbl = bench::ValueOrDie(
        data::Table::Create(names, prepared.truth, 2));
    data::ErrorInjectionOptions inject;
    inject.error_rate = 0.1;
    inject.seed = 4242;
    auto injection = bench::ValueOrDie(data::InjectErrors(tbl, inject));

    auto detection = bench::ValueOrDie(
        repair::DetectErrors(injection.dirty, prepared.spatial_cols));
    auto quality =
        repair::EvaluateDetection(detection.flagged, injection.dirty_cells);

    repair::SmflRepairer smfl;
    auto oracle_repair = bench::ValueOrDie(
        smfl.Repair(injection.dirty, injection.dirty_cells, 2));
    auto detected_repair = bench::ValueOrDie(
        smfl.Repair(injection.dirty, detection.flagged, 2));

    // Whole-table RMS so the three columns are comparable.
    const data::Mask everything =
        data::Mask::AllSet(prepared.truth.rows(), prepared.truth.cols());
    table.BeginRow(dataset_name);
    table.AddNumber(quality.precision, 2);
    table.AddNumber(quality.recall, 2);
    table.AddNumber(quality.f1, 2);
    table.AddNumber(bench::ValueOrDie(
        exp::RmsOverMask(oracle_repair, prepared.truth, everything)));
    table.AddNumber(bench::ValueOrDie(
        exp::RmsOverMask(detected_repair, prepared.truth, everything)));
    table.AddNumber(bench::ValueOrDie(
        exp::RmsOverMask(injection.dirty, prepared.truth, everything)));
  }
  table.Print(
      "Ablation: end-to-end repair with a statistical detector vs oracle");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
