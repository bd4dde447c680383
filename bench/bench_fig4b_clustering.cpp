// Reproduces Fig 4(b): clustering accuracy of the MF-based methods on the
// Lake dataset with 10% missing values (Kuhn–Munkres-matched accuracy
// against the generator's planted cluster labels).
//
// Expected shape (paper): SMFL highest, then SMF, then NMF/PCA.

#include "bench/bench_util.h"
#include "src/apps/clustering_app.h"
#include "src/data/inject.h"
#include "src/exp/report.h"

using namespace smfl;
using la::Index;
using la::Matrix;

int main() {
  exp::ReportTable report({"Method", "Accuracy"});
  const apps::ClusterMethod methods[] = {
      apps::ClusterMethod::kPca, apps::ClusterMethod::kNmf,
      apps::ClusterMethod::kSmf, apps::ClusterMethod::kSmfl,
      apps::ClusterMethod::kSpectral};

  // Average over a few independent injections (paper: five runs).
  const int trials = 3;
  std::vector<double> acc(5, 0.0);
  auto prepared = bench::ValueOrDie(
      exp::PrepareDataset("lake", exp::DefaultRowsFor("lake"), /*seed=*/7));
  std::vector<std::string> names;
  for (Index j = 0; j < prepared.truth.cols(); ++j) {
    names.push_back("c" + std::to_string(j));
  }
  auto table = bench::ValueOrDie(
      data::Table::Create(names, prepared.truth, 2));
  for (int t = 0; t < trials; ++t) {
    data::MissingInjectionOptions inject;
    inject.missing_rate = 0.1;
    inject.seed = 500 + static_cast<uint64_t>(t);
    auto injection = bench::ValueOrDie(data::InjectMissing(table, inject));
    Matrix input = data::ApplyMask(prepared.truth, injection.observed);
    apps::ClusterAppOptions options;
    options.num_clusters = 5;  // the lake generator plants 5 clusters
    options.rank = 10;         // library-default latent rank
    options.seed = 900 + static_cast<uint64_t>(t);
    for (size_t m = 0; m < 5; ++m) {
      acc[m] += bench::ValueOrDie(apps::ClusteringAccuracyOnIncomplete(
          methods[m], input, injection.observed, 2, prepared.cluster_labels,
          options));
    }
  }
  for (size_t m = 0; m < 5; ++m) {
    report.BeginRow(apps::ClusterMethodName(methods[m]));
    report.AddNumber(acc[m] / trials);
  }
  report.Print("Fig 4(b): clustering accuracy on incomplete Lake data");
  std::printf("%s", report.ToCsv().c_str());
  return 0;
}
