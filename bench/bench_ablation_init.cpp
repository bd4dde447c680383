// Ablation: cluster-consistent initialization of SMFL (DESIGN.md §4.1).
//
// With the first L columns of V frozen at the K-means centers, a randomly
// initialized U starts far from satisfying U·C ≈ SI and the multiplicative
// updates settle in poor local optima. This bench quantifies the effect by
// comparing full SMFL against SMFL whose landmark anchoring is the only
// spatial ingredient (lambda = 0), against SMF, and against plain NMF —
// isolating each ingredient's contribution:
//   NMF            : no spatial information at all
//   SMF            : + Laplacian smoothness
//   SMFL(lambda=0) : + landmarks & cluster-consistent init only
//   SMFL           : + both (the shipped method)

#include "bench/bench_util.h"
#include "src/exp/report.h"
#include "src/impute/mf_imputers.h"

using namespace smfl;

int main(int argc, char** argv) {
  auto flags = bench::ValueOrDie(Flags::Parse(argc, argv));
  const int trials =
      static_cast<int>(bench::ValueOrDie(flags.GetInt("trials", 3)));

  exp::ReportTable table({"Dataset", "NMF", "SMF", "SMFL(lam=0)", "SMFL"});
  for (const std::string& dataset_name : bench::PaperDatasets()) {
    auto prepared = bench::ValueOrDie(
        exp::PrepareDataset(dataset_name, exp::DefaultRowsFor(dataset_name)));
    exp::TrialOptions trial;
    trial.trials = trials;
    table.BeginRow(dataset_name);

    const impute::NmfImputer nmf;
    table.AddNumber(
        bench::ValueOrDie(exp::RunImputationTrials(prepared, nmf, trial))
            .mean_rms);
    const impute::SmfImputer smf;
    table.AddNumber(
        bench::ValueOrDie(exp::RunImputationTrials(prepared, smf, trial))
            .mean_rms);
    core::SmflOptions landmarks_only;
    landmarks_only.lambda = 0.0;
    const impute::SmflImputer smfl_no_reg(landmarks_only);
    table.AddNumber(
        bench::ValueOrDie(
            exp::RunImputationTrials(prepared, smfl_no_reg, trial))
            .mean_rms);
    const impute::SmflImputer smfl;
    table.AddNumber(
        bench::ValueOrDie(exp::RunImputationTrials(prepared, smfl, trial))
            .mean_rms);
  }
  table.Print("Ablation: ingredient contributions (imputation RMS, 10%)");
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}
