// Reproduces Fig 4(a): accumulated fuel-consumption error in the vehicle
// route-planning application, per imputation method.
//
// The fuel-consumption-rate column of the Vehicle dataset is knocked out at
// 10%, imputed by each method, and routes are costed on the imputed rates
// vs the ground truth (haversine segment length x mean endpoint rate).
//
// Expected shape (paper): SMFL lowest accumulated error; SMF next;
// neighbor/GAN methods worst.

#include "bench/bench_util.h"
#include "src/apps/route.h"
#include "src/data/inject.h"
#include "src/exp/report.h"
#include "src/impute/registry.h"

using namespace smfl;
using la::Index;
using la::Matrix;

int main() {
  auto prepared =
      bench::ValueOrDie(exp::PrepareDataset("vehicle", 2000, /*seed=*/7));
  const Index fuel_col = prepared.truth.cols() - 1;
  Matrix si = prepared.raw.Block(0, 0, prepared.raw.rows(), 2);

  // Ground-truth fuel rates in original units.
  std::vector<double> fuel_truth(static_cast<size_t>(prepared.raw.rows()));
  for (Index i = 0; i < prepared.raw.rows(); ++i) {
    fuel_truth[static_cast<size_t>(i)] = prepared.raw(i, fuel_col);
  }

  // A fixed fleet of routes.
  std::vector<apps::Route> routes;
  for (uint64_t s = 0; s < 20; ++s) {
    routes.push_back(
        bench::ValueOrDie(apps::SampleRoute(si, 25, 9000 + s)));
  }

  // Missing values at 10%, averaged over several independent injections
  // (routes are long sums of one column, so a single injection is noisy).
  std::vector<std::string> names;
  for (Index j = 0; j < prepared.truth.cols(); ++j) {
    names.push_back("c" + std::to_string(j));
  }
  auto table_result = data::Table::Create(names, prepared.truth, 2);
  const int trials = 3;
  exp::ReportTable report({"Method", "FuelError(L)"});
  for (const std::string& method : impute::RegisteredImputers()) {
    auto imputer = bench::ValueOrDie(impute::MakeImputer(method));
    double total_error = 0.0;
    bool failed = false;
    for (int t = 0; t < trials && !failed; ++t) {
      data::MissingInjectionOptions inject;
      inject.missing_rate = 0.1;
      inject.seed = 77 + static_cast<uint64_t>(t);
      auto injection =
          bench::ValueOrDie(data::InjectMissing(*table_result, inject));
      Matrix input = data::ApplyMask(prepared.truth, injection.observed);
      auto imputed = imputer->Impute(input, injection.observed, 2);
      if (!imputed.ok()) {
        failed = true;
        break;
      }
      std::vector<double> fuel_imputed(fuel_truth.size());
      for (Index i = 0; i < prepared.truth.rows(); ++i) {
        fuel_imputed[static_cast<size_t>(i)] =
            prepared.normalizer.InverseTransformCell((*imputed)(i, fuel_col),
                                                     fuel_col);
      }
      auto error =
          apps::MeanRouteFuelError(si, fuel_truth, fuel_imputed, routes);
      if (!error.ok()) {
        failed = true;
        break;
      }
      total_error += *error;
    }
    report.BeginRow(method);
    if (failed) {
      report.AddCell("ERR");
    } else {
      report.AddNumber(total_error / trials, 4);
    }
  }
  report.Print("Fig 4(a): accumulated fuel consumption error per method");
  std::printf("%s", report.ToCsv().c_str());
  return 0;
}
