// Shared glue for the table/figure reproduction binaries.

#ifndef SMFL_BENCH_BENCH_UTIL_H_
#define SMFL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/exp/experiment.h"

namespace smfl::bench {

using la::Index;

// The paper's four datasets (Table III), at the scaled-down default sizes
// from exp::DefaultRowsFor (see DESIGN.md substitutions).
inline std::vector<std::string> PaperDatasets() {
  return {"economic", "farm", "lake", "vehicle"};
}

inline void Fail(const Status& status) {
  std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T ValueOrDie(Result<T> result) {
  if (!result.ok()) Fail(result.status());
  return std::move(result).value();
}

// Parses the common bench flags: --trials=N (default 3) and --rows=N
// (0 = per-dataset default). Exits on malformed flags.
struct BenchConfig {
  int trials = 3;
  Index rows_override = 0;
};

inline BenchConfig ParseBenchConfig(int argc, const char* const* argv) {
  auto flags = ValueOrDie(Flags::Parse(argc, argv));
  BenchConfig config;
  config.trials = static_cast<int>(ValueOrDie(flags.GetInt("trials", 3)));
  config.rows_override =
      static_cast<Index>(ValueOrDie(flags.GetInt("rows", 0)));
  return config;
}

// Row count for `name`: the --rows override when given, else the default.
inline Index RowsFor(const BenchConfig& config, const std::string& name) {
  return config.rows_override > 0 ? config.rows_override
                                  : exp::DefaultRowsFor(name);
}

}  // namespace smfl::bench

#endif  // SMFL_BENCH_BENCH_UTIL_H_
