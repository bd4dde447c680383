// Benchmark program for the smfl library.
//
// Runs ONE workload in this process, timing calls into each module's
// public functions from the outside (no span is added to the library),
// checks every output, and prints one JSON object of raw measurements on
// stdout. Each measurement carries the unit it was taken in; run.py turns
// them into the metrics BENCHMARK.json declares and refuses any unit it
// cannot convert.
//
//   smfl_perfbench --workload=impute_tall --seed=1 --seconds=50 --trace=0
//                  --work-dir=DIR
//
// It runs at min(4, hardware threads) threads.
//
// --trace=0 measures the end-to-end metrics. --trace=1 is the separate
// traced run: the benchmark's own spans around every public call, the
// library's telemetry (smfl.fit.* / foldin.* spans and histograms), a
// 1-thread pass, replays of the landmark and la kernels at the workload's
// shapes, and the tracing overhead. perfbench/README.md documents every
// workload and metric.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/telemetry.h"
#include "src/core/fold_in.h"
#include "src/core/landmarks.h"
#include "src/core/model_io.h"
#include "src/core/smfl.h"
#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/mask.h"
#include "src/data/normalize.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/la/simd.h"
#include "src/spatial/graph.h"

namespace {

using smfl::Result;
using smfl::Status;
using smfl::data::Mask;
using smfl::la::Index;
using smfl::la::Matrix;

namespace core = smfl::core;
namespace data = smfl::data;
namespace la = smfl::la;
namespace telemetry = smfl::telemetry;

// ---------------------------------------------------------------------------
// Workload definitions. perfbench/README.md gives the reason for each.

constexpr Index kSpatialCols = 2;
// Each workload's table comes from a fixed generator seed (the
// generators' defaults), the way the paper evaluates on fixed datasets;
// --seed draws everything sampled from it: the hidden cells and the
// serving batch mix.
constexpr uint64_t kEconomicTableSeed = 11;
constexpr uint64_t kWideTableSeed = 7;
// Set-up runs at least kSetupMinRepeats times, then again while the
// set-ups so far took less than kSetupShare of --seconds, up to
// kSetupMaxRepeats; setup_s is the median.
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 15;
constexpr double kSetupShare = 0.1;
// Iterations of the short fits that compare the benchmark's graph step
// with FitSmfl's (see CheckGraphStep).
constexpr int kGraphCheckIterations = 3;

struct ImputeWorkload {
  const char* name;
  bool economic;  // MakeEconomicLike (13 columns) or MakeSynthetic
  Index rows;
  Index cols;  // MakeSynthetic only
  double missing_rate;
  int max_iterations;
};

constexpr ImputeWorkload kImputeTall{"impute_tall", true, 100000, 13, 0.10,
                                     100};
constexpr ImputeWorkload kImputeSparseWide{"impute_sparse_wide", false, 10000,
                                           122, 0.95, 200};

// foldin_serve: a model fit on kTrainRows economic-like rows serves
// kPoolBatches distinct batches of kBatchRows fresh rows, cycled.
constexpr Index kTrainRows = 5000;
constexpr Index kBatchRows = 256;
constexpr Index kPoolBatches = 64;
constexpr double kTrainMissingRate = 0.10;
// Batch mix (rows per 256-row batch): one of 4 fixed outage patterns /
// 20% of attribute cells hidden at random / no coordinates / nothing
// observed. 179/67/8/2 of 256 = 70% / 26% / 3% / 1%.
constexpr Index kMixPattern = 179;
constexpr Index kMixRandom = 67;
constexpr Index kMixNoCoords = 8;
constexpr Index kMixEmpty = 2;
static_assert(kMixPattern + kMixRandom + kMixNoCoords + kMixEmpty ==
              kBatchRows);
constexpr int kOutagePatterns = 4;
constexpr double kRandomHideRate = 0.2;
// Serving passes of the traced run (batches per pass).
constexpr Index kTracedServeBatches = 2 * kPoolBatches;
// Replay repetitions (medians are reported).
constexpr int kReplayRepeats = 5;

// ---------------------------------------------------------------------------
// Clock, statistics, JSON.

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process (every thread), in ns. The kernel leaves
// out the time the hypervisor stole from the VM's vCPUs, which wall time
// cannot (see job_cpu_s in perfbench/README.md).
int64_t CpuNowNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Raw measurements: name -> value in the unit it was taken in.
class Measurements {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, e] : entries_) {
      if (out.size() > 1) out += ",";
      out += JsonString(name) + ":{\"value\":" + JsonNumber(e.value) +
             ",\"unit\":" + JsonString(e.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around public calls. Kept in memory and
// written out at the end of a traced run.

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    int64_t run = 0;  // one id per job / batch / set-up
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.on_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      Span span;
      span.name = name;
      span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
      span.run = tracer_.run_;
      span.start_ns = NowNs();
      tracer_.spans_.push_back(std::move(span));
      tracer_.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      tracer_.spans_[static_cast<size_t>(index_)].end_ns = NowNs();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void set_on(bool on) { on_ = on; }
  int64_t NewRun() { return ++run_; }

  // Total duration (ns) of spans named `name` in run `run`.
  double Ns(const std::string& name, int64_t run) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.run == run && s.name == name) {
        total += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    return total;
  }

  // The root span `name` of run `run` minus the time its direct children
  // cover: the part of the job no benchmark span attributes.
  double SelfNs(const std::string& name, int64_t run) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run || s.name != name) continue;
      double self = static_cast<double>(s.end_ns - s.start_ns);
      for (const Span& c : spans_) {
        if (c.parent == static_cast<int>(i)) {
          self -= static_cast<double>(c.end_ns - c.start_ns);
        }
      }
      return self;
    }
    return 0.0;
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot write " + path);
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out << ",\n";
      out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}";
    }
    out << "]}\n";
    return out ? Status::OK() : Status::IoError("short write to " + path);
  }

 private:
  bool on_ = false;
  int64_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Output checks. One operation (a job, a batch, a set-up, a replay
// comparison) counts as failed when any of its checks fails.

class Checks {
 public:
  void BeginOp() {
    ++attempted_;
    op_failed_ = false;
  }
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (!op_failed_) ++failed_;
    op_failed_ = true;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  void ExpectOk(const Status& st, const std::string& what) {
    Expect(st.ok(), what + ": " + st.ToString());
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  std::string FailuresJson() const {
    std::string out = "[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonString(failures_[i]);
    }
    return out + "]";
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool op_failed_ = false;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Helpers.

uint64_t Fingerprint(const Matrix& m, uint64_t h = 1469598103934665603ULL) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  const size_t n = static_cast<size_t>(m.size()) * sizeof(double);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool AllFinite(const Matrix& m) { return !m.HasNonFinite(); }

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double PeakRssKiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

// Sum and count of a library histogram (span histograms hold µs); zero
// when it was never hit.
struct HistogramTotals {
  double sum = 0.0;
  double count = 0.0;
};

HistogramTotals Histo(const std::string& name) {
  const auto snap = telemetry::MetricsRegistry::Global().SnapshotAll();
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return {h.sum, static_cast<double>(h.count)};
  }
  return {};
}

double CounterValue(const std::string& name) {
  const auto snap = telemetry::MetricsRegistry::Global().SnapshotAll();
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

// Median duration (ns) of `repeats` calls of fn.
template <typename Fn>
double TimeMedianNs(int repeats, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < repeats; ++r) {
    const int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(std::move(ns));
}

// The objective trace must not increase (Propositions 5/7), up to the
// rounding slack the library's own guard allows.
bool ObjectiveMonotone(const std::vector<double>& trace) {
  const double slack = core::GuardOptions{}.objective_slack;
  for (size_t i = 1; i < trace.size(); ++i) {
    const double ref = trace[i - 1];
    if (trace[i] > ref + slack * std::max(1.0, std::abs(ref))) return false;
  }
  return !trace.empty();
}

core::SmflOptions FitOptions(int max_iterations) {
  core::SmflOptions options;  // K=10, λ=0.5, p=3, default tolerance
  options.max_iterations = max_iterations;
  options.threads = 0;  // inherit the process setting (SetParallelism)
  return options;
}

// ---------------------------------------------------------------------------
// The training half of an imputation: parse → normalize → graph → fit.
// Shared by the impute job and by foldin_serve's set-up, so both record
// the same span names.

struct Trained {
  data::CsvTable csv;
  data::MinMaxNormalizer normalizer;
  Matrix normalized;  // R_Ω of the min-max-normalized input
  Index graph_edges = 0;
  core::SmflModel model;
};

Status ParseAndNormalize(const std::string& csv_text, Tracer& tracer,
                         Trained* t) {
  {
    Tracer::Scope span(tracer, "data.parse");
    data::CsvReadOptions read;
    read.spatial_cols = kSpatialCols;
    ASSIGN_OR_RETURN(t->csv, data::ParseCsv(csv_text, read));
  }
  Tracer::Scope span(tracer, "data.normalize");
  const Matrix& values = t->csv.table.values();
  ASSIGN_OR_RETURN(t->normalizer,
                   data::MinMaxNormalizer::Fit(values, t->csv.observed));
  t->normalized =
      data::ApplyMask(t->normalizer.Transform(values), t->csv.observed);
  return Status::OK();
}

// FitSmfl split in two so that graph build is timed as its own layer:
// NeighborGraph::Build over SI, then FitSmflWithGraph. This is FitSmfl's
// graph step only for binary weights and complete SI (no partial-SI
// edges), so anything else is refused; CheckGraphStep compares the two
// paths on every run.
Result<core::SmflModel> FitWithOwnGraph(const Matrix& x, const Mask& observed,
                                        const core::SmflOptions& options,
                                        Tracer& tracer, Index* edges) {
  if (options.graph_weighting != core::GraphWeighting::kBinary) {
    return Status::InvalidArgument("benchmark graph step needs binary weights");
  }
  Result<core::NeighborGraph> graph = Status::Internal("graph not built");
  {
    Tracer::Scope span(tracer, "spatial.graph_build");
    const Index n = x.rows();
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < kSpatialCols; ++j) {
        if (!observed.Contains(i, j)) {
          return Status::InvalidArgument("workload input has missing SI cells");
        }
      }
    }
    const std::vector<bool> complete(static_cast<size_t>(n), true);
    const Index p = std::min(options.num_neighbors, std::max<Index>(1, n - 1));
    graph = core::NeighborGraph::Build(x.Block(0, 0, n, kSpatialCols), p,
                                       complete);
  }
  RETURN_NOT_OK(graph.status());
  *edges = graph->num_edges();
  Tracer::Scope span(tracer, "core.fit");
  return core::FitSmflWithGraph(x, observed, kSpatialCols, *graph, options);
}

Result<Trained> Train(const std::string& csv_text,
                      const core::SmflOptions& options, Tracer& tracer) {
  Trained t;
  RETURN_NOT_OK(ParseAndNormalize(csv_text, tracer, &t));
  ASSIGN_OR_RETURN(t.model, FitWithOwnGraph(t.normalized, t.csv.observed,
                                            options, tracer, &t.graph_edges));
  t.model.normalizer = t.normalizer;
  return t;
}

// The benchmark's graph step must give the model FitSmfl gives. The graph
// is fixed before the first iteration, so a short fit is enough to tell
// the two apart.
void CheckGraphStep(const Matrix& x, const Mask& observed, Checks& checks) {
  checks.BeginOp();
  const core::SmflOptions options = FitOptions(kGraphCheckIterations);
  Tracer off;
  Index edges = 0;
  Result<core::SmflModel> own =
      FitWithOwnGraph(x, observed, options, off, &edges);
  checks.ExpectOk(own.status(), "graph check: benchmark graph step");
  Result<core::SmflModel> library =
      core::FitSmfl(x, observed, kSpatialCols, options);
  checks.ExpectOk(library.status(), "graph check: FitSmfl");
  if (!own.ok() || !library.ok()) return;
  checks.Expect(core::SerializeModel(*own) == core::SerializeModel(*library),
                "benchmark graph step gives another model than FitSmfl");
}

// ---------------------------------------------------------------------------
// impute_tall / impute_sparse_wide.

struct ImputeInputs {
  std::string csv_text;  // what the program is given
  Matrix truth;          // generated values, before hiding
  Mask hidden;           // cells removed from the CSV
};

Result<ImputeInputs> SetUpImpute(const ImputeWorkload& w, uint64_t seed,
                                 const std::string& work_dir) {
  data::SyntheticDataset ds;
  if (w.economic) {
    ASSIGN_OR_RETURN(ds, data::MakeEconomicLike(w.rows, kEconomicTableSeed));
  } else {
    data::SyntheticSpec spec;
    spec.name = "wide";
    spec.rows = w.rows;
    spec.cols = w.cols;
    spec.seed = kWideTableSeed;
    ASSIGN_OR_RETURN(ds, data::MakeSynthetic(spec));
  }
  data::MissingInjectionOptions missing;
  missing.missing_rate = w.missing_rate;
  missing.seed = seed;
  ASSIGN_OR_RETURN(data::MissingInjection inj,
                   data::InjectMissing(ds.table, missing));
  const std::string path = work_dir + "/" + w.name + "-input.csv";
  RETURN_NOT_OK(data::WriteCsv(path, ds.table, inj.observed));
  ImputeInputs in;
  ASSIGN_OR_RETURN(in.csv_text, ReadFile(path));
  in.truth = ds.table.values();
  in.hidden = inj.observed.Complement();
  return in;
}

struct ImputeJob {
  Status status;
  int64_t ns = 0;
  int64_t cpu_ns = 0;
  Trained trained;
  Matrix completed;  // normalized space, Formula 8
  data::Table output;
};

// One imputation job, timed end to end: parse CSV text → normalize →
// build graph → fit → recover (Formula 8) → denormalize → write CSV.
ImputeJob RunImputeJob(const ImputeInputs& in, const core::SmflOptions& opt,
                       const std::string& out_path, Tracer& tracer) {
  ImputeJob job;
  const int64_t t0 = NowNs();
  const int64_t cpu0 = CpuNowNs();
  job.status = [&]() -> Status {
    Tracer::Scope root(tracer, "job");
    ASSIGN_OR_RETURN(job.trained, Train(in.csv_text, opt, tracer));
    const Trained& t = job.trained;
    {
      Tracer::Scope span(tracer, "core.recover");
      job.completed = data::CombineByMask(t.normalized, t.model.Reconstruct(),
                                          t.csv.observed);
    }
    {
      Tracer::Scope span(tracer, "data.denormalize");
      const Matrix& values = t.csv.table.values();
      ASSIGN_OR_RETURN(
          job.output,
          data::Table::Create(
              t.csv.table.column_names(),
              data::CombineByMask(values,
                                  t.normalizer.InverseTransform(job.completed),
                                  t.csv.observed),
              kSpatialCols));
    }
    Tracer::Scope span(tracer, "data.write");
    return data::WriteCsv(out_path, job.output);
  }();
  job.cpu_ns = CpuNowNs() - cpu0;
  job.ns = NowNs() - t0;
  return job;
}

// Checks one finished job; returns the RMSE over the hidden cells
// (normalized units) against the generated ground truth.
double CheckImputeJob(const ImputeJob& job, const ImputeInputs& in,
                      Checks& checks) {
  checks.ExpectOk(job.status, "impute job");
  if (!job.status.ok()) return 0.0;
  const Trained& t = job.trained;
  const core::FitReport& report = t.model.report;
  checks.Expect(ObjectiveMonotone(report.objective_trace),
                "objective trace increased");
  checks.Expect(core::LandmarksIntact(t.model.v, t.model.landmarks),
                "landmark columns of V changed");
  const Matrix& parsed = t.csv.table.values();
  const Matrix& restored = job.output.values();
  const Mask& observed = t.csv.observed;
  checks.Expect(observed == in.hidden.Complement(),
                "parsed mask differs from the generated one");
  checks.Expect(AllFinite(job.completed) && AllFinite(restored),
                "non-finite output");
  bool observed_kept = true;
  for (Index i = 0; i < parsed.rows(); ++i) {
    for (Index j = 0; j < parsed.cols(); ++j) {
      if (!observed.Contains(i, j)) continue;
      observed_kept = observed_kept &&
                      SameBits(restored(i, j), parsed(i, j)) &&
                      SameBits(job.completed(i, j), t.normalized(i, j));
    }
  }
  checks.Expect(observed_kept, "an observed cell came back changed");
  const Matrix truth = t.normalizer.Transform(in.truth);
  double sq = 0.0;
  Index count = 0;
  for (Index i = 0; i < truth.rows(); ++i) {
    for (Index j = 0; j < truth.cols(); ++j) {
      if (!in.hidden.Contains(i, j)) continue;
      const double d = job.completed(i, j) - truth(i, j);
      sq += d * d;
      ++count;
    }
  }
  checks.Expect(count > 0, "no hidden cells");
  return count > 0 ? std::sqrt(sq / static_cast<double>(count)) : 0.0;
}

// The written CSV parses back to the output table: same shape, every cell
// filled, values equal to the 12 significant digits WriteCsv prints.
void CheckWrittenCsv(const std::string& path, const data::Table& output,
                     Checks& checks) {
  Result<std::string> text = ReadFile(path);
  checks.ExpectOk(text.status(), "read back output CSV");
  if (!text.ok()) return;
  Result<data::CsvTable> back = data::ParseCsv(*text);
  checks.ExpectOk(back.status(), "parse output CSV");
  if (!back.ok()) return;
  const Matrix& a = back->table.values();
  const Matrix& b = output.values();
  checks.Expect(a.rows() == b.rows() && a.cols() == b.cols() &&
                    back->observed.Count() == a.size(),
                "output CSV shape or holes");
  if (a.rows() != b.rows() || a.cols() != b.cols()) return;
  bool close = true;
  for (Index i = 0; i < a.size(); ++i) {
    close = close && std::abs(a.data()[i] - b.data()[i]) <=
                         1e-10 * std::max(1.0, std::abs(b.data()[i]));
  }
  checks.Expect(close, "output CSV values differ from the output table");
}

// CheckGraphStep on the impute workload's input, parsed afresh so that no
// job is alive beside it.
void CheckImputeGraphStep(const ImputeInputs& in, Checks& checks) {
  Tracer off;
  Trained t;
  const Status parsed = ParseAndNormalize(in.csv_text, off, &t);
  if (!parsed.ok()) {
    checks.BeginOp();
    checks.ExpectOk(parsed, "graph check: parse");
    return;
  }
  CheckGraphStep(t.normalized, t.csv.observed, checks);
}

// ---------------------------------------------------------------------------
// foldin_serve.

double Rms(double sum_sq, Index count) {
  return std::sqrt(sum_sq / static_cast<double>(std::max<Index>(count, 1)));
}

struct Batch {
  Matrix x;       // normalized, hidden cells zeroed
  Mask observed;
  Matrix truth;   // normalized ground truth
  Index expect_landmark = 0, expect_uniform = 0, expect_column_mean = 0;
  Index groups = 0;  // distinct observed-column patterns of solvable rows
};

struct ServeSetup {
  Trained trained;        // the training pipeline's result
  core::SmflModel model;  // deserialized: what serving uses
  std::vector<Batch> batches;
};

Result<ServeSetup> SetUpServe(uint64_t seed, const std::string& work_dir,
                              Tracer& tracer) {
  const Index fresh = kBatchRows * kPoolBatches;
  ASSIGN_OR_RETURN(
      data::SyntheticDataset ds,
      data::MakeEconomicLike(kTrainRows + fresh, kEconomicTableSeed));
  const Index m = ds.table.NumCols();
  // The first kTrainRows rows are the history the model is fit on; the
  // rest arrive fresh.
  std::vector<Index> train_rows(static_cast<size_t>(kTrainRows));
  for (Index i = 0; i < kTrainRows; ++i) train_rows[static_cast<size_t>(i)] = i;
  const data::Table train = ds.table.SelectRows(train_rows);
  data::MissingInjectionOptions missing;
  missing.missing_rate = kTrainMissingRate;
  missing.seed = seed;
  ASSIGN_OR_RETURN(data::MissingInjection inj,
                   data::InjectMissing(train, missing));
  const std::string path = work_dir + "/foldin_serve-train.csv";
  {
    Tracer::Scope span(tracer, "data.write");
    RETURN_NOT_OK(data::WriteCsv(path, train, inj.observed));
  }
  ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  ServeSetup s;
  ASSIGN_OR_RETURN(s.trained, Train(text, FitOptions(500), tracer));
  std::string bytes;
  {
    Tracer::Scope span(tracer, "model_io.serialize");
    bytes = core::SerializeModel(s.trained.model);
  }
  {
    Tracer::Scope span(tracer, "model_io.deserialize");
    ASSIGN_OR_RETURN(s.model, core::DeserializeModel(bytes));
  }
  if (!s.model.normalizer.has_value()) {
    return Status::DataError("served model lost its normalizer");
  }

  // Fresh rows from the held-back tail of the same table, mapped into the
  // training normalization and clamped to its range, so every observed
  // cell is valid and the only degraded rows are the designed empty ones.
  Matrix fresh_norm = s.model.normalizer->Transform(
      ds.table.values().Block(kTrainRows, 0, fresh, m));
  for (Index i = 0; i < fresh_norm.size(); ++i) {
    fresh_norm.data()[i] = std::clamp(fresh_norm.data()[i], 0.0, 1.0);
  }
  const Index attrs = m - kSpatialCols;
  smfl::Rng rng(seed);
  // Outage pattern q hides every attribute column a with a % 4 == q.
  std::vector<std::vector<bool>> patterns;
  for (int q = 0; q < kOutagePatterns; ++q) {
    std::vector<bool> hide(static_cast<size_t>(m), false);
    for (Index a = q; a < attrs; a += kOutagePatterns) {
      hide[static_cast<size_t>(a + kSpatialCols)] = true;
    }
    patterns.push_back(std::move(hide));
  }
  enum Kind { kPattern, kRandom, kNoCoords, kEmpty };
  for (Index b = 0; b < kPoolBatches; ++b) {
    std::vector<Kind> kinds;
    kinds.insert(kinds.end(), kMixPattern, kPattern);
    kinds.insert(kinds.end(), kMixRandom, kRandom);
    kinds.insert(kinds.end(), kMixNoCoords, kNoCoords);
    kinds.insert(kinds.end(), kMixEmpty, kEmpty);
    std::vector<Kind> shuffled;
    for (size_t p : rng.Permutation(kinds.size())) shuffled.push_back(kinds[p]);
    Batch batch;
    batch.truth = fresh_norm.Block(b * kBatchRows, 0, kBatchRows, m);
    batch.x = batch.truth;
    batch.observed = Mask(kBatchRows, m, true);
    std::set<std::vector<bool>> seen;
    for (Index i = 0; i < kBatchRows; ++i) {
      std::vector<bool> hide(static_cast<size_t>(m), false);
      switch (shuffled[static_cast<size_t>(i)]) {
        case kPattern:
          hide = patterns[rng.UniformInt(kOutagePatterns)];
          ++batch.expect_landmark;
          break;
        case kRandom:
          for (Index j = kSpatialCols; j < m; ++j) {
            hide[static_cast<size_t>(j)] = rng.Bernoulli(kRandomHideRate);
          }
          ++batch.expect_landmark;
          break;
        case kNoCoords:
          for (Index j = 0; j < kSpatialCols; ++j) {
            hide[static_cast<size_t>(j)] = true;
          }
          ++batch.expect_uniform;
          break;
        case kEmpty:
          hide.assign(static_cast<size_t>(m), true);
          ++batch.expect_column_mean;
          break;
      }
      for (Index j = 0; j < m; ++j) {
        if (!hide[static_cast<size_t>(j)]) continue;
        batch.observed.Set(i, j, false);
        batch.x(i, j) = 0.0;
      }
      if (shuffled[static_cast<size_t>(i)] != kEmpty) {
        std::vector<bool> obs(hide.size());
        for (size_t j = 0; j < hide.size(); ++j) obs[j] = !hide[j];
        seen.insert(std::move(obs));
      }
    }
    batch.groups = static_cast<Index>(seen.size());
    s.batches.push_back(std::move(batch));
  }
  return s;
}

struct ServeResult {
  Status status;
  int64_t ns = 0;
  int64_t cpu_ns = 0;
  Matrix out;
  core::FoldInReport report;
};

ServeResult ServeBatch(const core::SmflModel& model, const Batch& batch,
                       Tracer& tracer) {
  ServeResult r;
  const int64_t t0 = NowNs();
  const int64_t cpu0 = CpuNowNs();
  {
    Tracer::Scope span(tracer, "foldin.call");
    Result<Matrix> out =
        core::FoldIn(model, batch.x, batch.observed, {}, &r.report);
    r.status = out.status();
    if (out.ok()) r.out = std::move(*out);
  }
  r.cpu_ns = CpuNowNs() - cpu0;
  r.ns = NowNs() - t0;
  return r;
}

// Checks one served batch; `sample` picks the row compared bitwise with
// FoldInRow. Adds the squared error over hidden cells to *sq / *count.
void CheckBatch(const core::SmflModel& model, const Batch& batch,
                const ServeResult& r, Index sample, Checks& checks, double* sq,
                Index* count) {
  checks.ExpectOk(r.status, "FoldIn");
  if (!r.status.ok()) return;
  const core::FoldInReport& rep = r.report;
  checks.Expect(
      rep.CountTier(core::FoldInTier::kLandmarkKernel) ==
              batch.expect_landmark &&
          rep.CountTier(core::FoldInTier::kUniformU) == batch.expect_uniform &&
          rep.CountTier(core::FoldInTier::kColumnMean) ==
              batch.expect_column_mean &&
          rep.DegradedCount() == batch.expect_column_mean,
      "FoldInReport tiers differ from the generated mix: " + rep.ToString());
  checks.Expect(AllFinite(r.out), "non-finite fold-in output");
  const Index m = batch.x.cols();
  bool kept = true;
  for (Index i = 0; i < batch.x.rows(); ++i) {
    for (Index j = 0; j < m; ++j) {
      if (batch.observed.Contains(i, j)) {
        kept = kept && SameBits(r.out(i, j), batch.x(i, j));
      } else if (sq != nullptr) {
        const double d = r.out(i, j) - batch.truth(i, j);
        *sq += d * d;
        ++*count;
      }
    }
  }
  checks.Expect(kept, "an observed cell came back changed");
  // Sampled row: the batch path must equal the single-row path bitwise.
  for (Index step = 0; step < batch.x.rows(); ++step) {
    const Index i = (sample + step) % batch.x.rows();
    if (rep.rows[static_cast<size_t>(i)].served_by ==
        core::FoldInTier::kColumnMean) {
      continue;
    }
    la::Vector row(m);
    std::vector<bool> obs(static_cast<size_t>(m));
    for (Index j = 0; j < m; ++j) {
      row[j] = batch.x(i, j);
      obs[static_cast<size_t>(j)] = batch.observed.Contains(i, j);
    }
    Result<la::Vector> single = core::FoldInRow(model, row, obs);
    checks.ExpectOk(single.status(), "FoldInRow");
    if (!single.ok()) return;
    bool same = true;
    for (Index j = 0; j < m; ++j) {
      same = same && SameBits((*single)[j], r.out(i, j));
    }
    checks.Expect(same, "FoldIn row differs from FoldInRow");
    return;
  }
}

// ---------------------------------------------------------------------------
// Replays at a workload's exact shapes, run outside any timed job.

// `x` is the normalized R_Ω(X) (N x M) the model was fit on.
void ReplayKernels(const Matrix& x, const Mask& observed,
                   const core::SmflModel& model, Measurements& out) {
  const Matrix& u = model.u;
  const Matrix& v = model.v;
  const Index n = x.rows(), m = x.cols(), k = u.cols();
  const Index free_cols = m - kSpatialCols;

  // Ω index, built the way the fit builds it (mask + packed values).
  data::ObservedIndex omega;
  const double omega_ns = TimeMedianNs(kReplayRepeats, [&] {
    omega = data::ObservedIndex::FromMask(observed, x);
  });
  out.Add("data.omega_index_s", omega_ns, "ns");
  out.Add("data.omega_count", static_cast<double>(omega.Count()), "count");
  out.Add("la.useful_work_ratio",
          static_cast<double>(omega.Count()) / static_cast<double>(n * m),
          "ratio");

  // U-update numerator R_Ω(X)Vᵀ (and its denominator twin).
  const double u_ns =
      TimeMedianNs(kReplayRepeats, [&] { (void)la::MatMulABt(x, v); });
  // V-update numerator Uᵀ R_Ω(X) over the M-L free columns. The fit's
  // column-offset variant is private to src/core/smfl.cc; la::MatMulAtB on
  // the free block has the same shape and the same K-row partition.
  const Matrix x_free = x.Block(0, kSpatialCols, n, free_cols);
  const double v_ns =
      TimeMedianNs(kReplayRepeats, [&] { (void)la::MatMulAtB(u, x_free); });
  const double rec_ns = TimeMedianNs(kReplayRepeats, [&] {
    (void)data::MaskedReconstruct(u, v, omega);
  });
  out.Add("la.u_numerator_s", u_ns, "ns");
  out.Add("la.v_numerator_s", v_ns, "ns");
  out.Add("la.masked_reconstruct_s", rec_ns, "ns");
  const double u_flop = 2.0 * static_cast<double>(n * m * k);
  const double v_flop = 2.0 * static_cast<double>(n * k * free_cols);
  out.Add("la.u_numerator_gflops", u_flop / u_ns, "flop/ns");
  out.Add("la.v_numerator_gflops", v_flop / v_ns, "flop/ns");
  // Computed (not measured) bytes the two numerator gemms touch once each:
  // operands read plus result written, 8 bytes per double.
  const double u_bytes = 8.0 * static_cast<double>(n * m + k * m + n * k);
  const double v_bytes =
      8.0 * static_cast<double>(n * k + n * free_cols + k * free_cols);
  out.Add("la.bytes_computed", u_bytes + v_bytes, "B");
}

void ReplayLandmarks(const Matrix& normalized, const core::SmflOptions& opt,
                     Measurements& out) {
  // The fit's K-means over SI (complete in every workload, so the
  // mean-fill the fit applies first is the identity).
  const Matrix si = normalized.Block(0, 0, normalized.rows(), kSpatialCols);
  core::LandmarkOptions lm;
  lm.kmeans_max_iterations = opt.kmeans_max_iterations;
  lm.seed = opt.seed;
  const double ns = TimeMedianNs(3, [&] {
    (void)core::GenerateLandmarks(si, opt.rank, lm);
  });
  out.Add("core.landmarks_s", ns, "ns");
}

// Library telemetry collected over one traced fit.
void FitTelemetry(double fit_ns, const core::FitReport& report,
                  Measurements& out) {
  const double u = Histo("smfl.fit.update_u").sum;
  const double v = Histo("smfl.fit.update_v").sum;
  const double rec = Histo("smfl.fit.reconstruct").sum;
  const double iter = Histo("smfl.fit.iter").sum;
  const double fit_span = Histo("smfl.fit").sum;
  out.Add("core.span.update_u_s", u, "us");
  out.Add("core.span.update_v_s", v, "us");
  out.Add("core.span.reconstruct_s", rec, "us");
  // Self time of smfl.fit.iter (objective + guard) and of smfl.fit
  // (initialization: landmarks, kernel init, Ω index).
  out.Add("core.span.iter_self_s", iter - u - v - rec, "us");
  out.Add("core.span.fit_self_s", fit_span - iter, "us");
  // Fit time the three phase spans do not cover.
  out.Add("core.untraced_s", fit_ns - 1e3 * (u + v + rec), "ns");
  out.Add("core.fit_s", fit_ns, "ns");
  out.Add("core.fit_iterations", report.iterations, "count");
  out.Add("core.fit_s_per_iter",
          fit_ns / std::max(1, report.iterations), "ns");
  out.Add("core.fit_rollbacks", report.rollbacks, "count");
}

// Fold-in layer metrics from one traced serving pass: `call_ns` holds the
// benchmark's span per FoldIn call, `batches` the inputs served. Returns
// the mean time per call (ns) outside the library's foldin.batch span.
double FoldInTelemetry(const std::vector<const Batch*>& batches,
                       const std::vector<double>& call_ns, Measurements& out) {
  const double nb = static_cast<double>(batches.size());
  double groups = 0.0, solvable = 0.0, call_total = 0.0;
  for (const Batch* b : batches) {
    groups += static_cast<double>(b->groups);
    solvable += static_cast<double>(b->expect_landmark + b->expect_uniform);
  }
  for (const double ns : call_ns) call_total += ns;
  // The library's own foldin.batch span inside each call; the rest of the
  // call is the residue no span attributes.
  const HistogramTotals batch_span = Histo("foldin.batch");
  const double untraced_ns = (call_total - 1e3 * batch_span.sum) / nb;
  out.Add("foldin.call_s", call_total / nb, "ns");
  out.Add("foldin.batch_span_s", batch_span.sum / nb, "us");
  out.Add("foldin.groups_per_batch", groups / nb, "count");
  out.Add("foldin.rows_per_group", solvable / std::max(groups, 1.0), "count");
  const HistogramTotals iters = Histo("foldin.row_iterations");
  out.Add("foldin.mean_row_iterations", iters.sum / std::max(iters.count, 1.0),
          "count");
  const double rows = CounterValue("foldin.rows");
  out.Add("foldin.degraded_ratio",
          CounterValue("foldin.degraded_rows") / std::max(rows, 1.0), "ratio");
  out.Add("foldin.tier.landmark_kernel",
          CounterValue("foldin.tier.landmark_kernel") / nb, "count");
  out.Add("foldin.tier.uniform_u", CounterValue("foldin.tier.uniform_u") / nb,
          "count");
  out.Add("foldin.tier.column_mean",
          CounterValue("foldin.tier.column_mean") / nb, "count");
  out.Add("foldin.row_solve_s", Histo("foldin.row_solve_us").sum / nb,
          "us");
  return untraced_ns;
}

// ---------------------------------------------------------------------------
// Runs.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".";
};

struct RunOutput {
  Measurements measurements;
  Checks checks;
  Tracer tracer;
};

std::string ProvenanceJson(const Args& a) {
  return "{\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
          ",\"cpu_model\":" + JsonString(CpuModel()) +
          ",\"simd_tier\":" +
          JsonString(la::simd::TierName(la::simd::ActiveTier())) +
          ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
          ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
          ",\"threads\":" + std::to_string(smfl::parallel::Parallelism()) +
          ",\"seed\":" + std::to_string(a.seed) + "}";
}

// Repeats the set-up (see kSetupMinRepeats); the median goes to setup_s.
// Only one set-up is alive at a time, so peak_rss_mb is not inflated by a
// second copy the workload never holds.
template <typename SetUpFn>
auto RepeatSetUp(const Args& a, RunOutput& run, SetUpFn&& set_up) {
  std::vector<double> ns;
  double total_ns = 0.0;
  decltype(set_up()) last = Status::Internal("set-up not run");
  while (static_cast<int>(ns.size()) < kSetupMinRepeats ||
         (static_cast<int>(ns.size()) < kSetupMaxRepeats &&
          total_ns < kSetupShare * a.seconds * 1e9)) {
    last = Status::Internal("set-up not run");
    run.checks.BeginOp();
    const int64_t t0 = NowNs();
    last = set_up();
    ns.push_back(static_cast<double>(NowNs() - t0));
    total_ns += ns.back();
    run.checks.ExpectOk(last.status(), "set-up");
  }
  run.measurements.Add("setup_s", Median(ns), "ns");
  run.measurements.Add("setups", static_cast<double>(ns.size()), "count");
  return last;
}

// Called when the measured loop ends. peak_rss_mb covers set-up and the
// loop, not the checks that follow it.
void EndToEndJobs(const std::vector<double>& job_ns,
                  const std::vector<double>& job_cpu_ns, RunOutput& run) {
  run.measurements.Add("job_s", Median(job_ns), "ns");
  run.measurements.Add("job_cpu_s", Median(job_cpu_ns), "ns");
  run.measurements.Add("jobs", static_cast<double>(job_ns.size()), "count");
  run.measurements.Add("peak_rss_mb", PeakRssKiB(), "KiB");
}

void RunImpute(const ImputeWorkload& w, const Args& a, RunOutput& run) {
  const core::SmflOptions opt = FitOptions(w.max_iterations);
  const std::string out_path = a.work_dir + "/" + w.name + "-output.csv";
  Result<ImputeInputs> in = RepeatSetUp(
      a, run, [&] { return SetUpImpute(w, a.seed, a.work_dir); });
  if (!in.ok()) return;
  Measurements& out = run.measurements;

  if (a.trace == 0) {
    std::vector<double> job_ns, job_cpu_ns;
    double rmse = 0.0;
    uint64_t first_fp = 0;
    const int64_t start = NowNs();
    // Starts another job only while it would end within --seconds, if it
    // takes as long as the last one.
    while (job_ns.empty() ||
           static_cast<double>(NowNs() - start) + job_ns.back() <=
               a.seconds * 1e9) {
      run.checks.BeginOp();
      ImputeJob job = RunImputeJob(*in, opt, out_path, run.tracer);
      job_ns.push_back(static_cast<double>(job.ns));
      job_cpu_ns.push_back(static_cast<double>(job.cpu_ns));
      rmse = CheckImputeJob(job, *in, run.checks);
      if (job_ns.size() == 1) {
        CheckWrittenCsv(out_path, job.output, run.checks);
        first_fp = Fingerprint(job.completed);
      } else {
        run.checks.Expect(Fingerprint(job.completed) == first_fp,
                          "repeated job gave a different result");
      }
    }
    EndToEndJobs(job_ns, job_cpu_ns, run);
    out.Add("rmse_hidden", rmse, "normalized");
    CheckImputeGraphStep(*in, run.checks);
    return;
  }

  // Traced run. Pass A: untraced library (benchmark spans only) at the
  // configured thread count; pass B: library telemetry on; pass C: one
  // thread.
  Tracer& tr = run.tracer;
  tr.set_on(true);
  run.checks.BeginOp();
  const int64_t run_a = tr.NewRun();
  ImputeJob a_job = RunImputeJob(*in, opt, out_path, tr);
  const double rmse = CheckImputeJob(a_job, *in, run.checks);

  run.checks.BeginOp();
  telemetry::MetricsRegistry::Global().ResetForTesting();
  telemetry::SetEnabled(true);
  const int64_t run_b = tr.NewRun();
  ImputeJob b_job = RunImputeJob(*in, opt, out_path, tr);
  telemetry::SetEnabled(false);
  (void)CheckImputeJob(b_job, *in, run.checks);
  run.checks.Expect(Histo("smfl.fit.iter").count > 0,
                    "library telemetry recorded nothing");
  FitTelemetry(tr.Ns("core.fit", run_b), b_job.trained.model.report, out);

  run.checks.BeginOp();
  const int threads = smfl::parallel::Parallelism();
  smfl::parallel::SetParallelism(1);
  const int64_t run_c = tr.NewRun();
  ImputeJob c_job = RunImputeJob(*in, opt, out_path, tr);
  smfl::parallel::SetParallelism(threads);
  (void)CheckImputeJob(c_job, *in, run.checks);
  run.checks.Expect(Fingerprint(c_job.completed) ==
                        Fingerprint(a_job.completed),
                    "completed matrix differs between 1 and " +
                        std::to_string(threads) + " threads");

  out.Add("job_s", static_cast<double>(a_job.ns), "ns");
  out.Add("rmse_hidden", rmse, "normalized");
  out.Add("trace.job_s", static_cast<double>(b_job.ns), "ns");
  out.Add("trace.overhead",
          static_cast<double>(b_job.ns) / static_cast<double>(a_job.ns),
          "ratio");
  out.Add("trace.untraced_s", tr.SelfNs("job", run_b), "ns");
  out.Add("trace.untraced_share",
          tr.SelfNs("job", run_b) / static_cast<double>(b_job.ns), "ratio");
  out.Add("data.parse_s", tr.Ns("data.parse", run_b), "ns");
  out.Add("data.normalize_s",
          tr.Ns("data.normalize", run_b) + tr.Ns("data.denormalize", run_b),
          "ns");
  out.Add("data.write_s", tr.Ns("data.write", run_b), "ns");
  out.Add("spatial.graph_build_s", tr.Ns("spatial.graph_build", run_b), "ns");
  out.Add("spatial.graph_edges",
          static_cast<double>(b_job.trained.graph_edges), "count");
  out.Add("core.recover_s", tr.Ns("core.recover", run_b), "ns");
  out.Add("parallel.fit_speedup_4t",
          tr.Ns("core.fit", run_c) / tr.Ns("core.fit", run_a), "ratio");

  // Replays on the pass-A model and input.
  const Trained& t = a_job.trained;
  ReplayKernels(t.normalized, t.csv.observed, t.model, out);
  ReplayLandmarks(t.normalized, opt, out);
  std::string bytes;
  out.Add("model_io.serialize_s",
          TimeMedianNs(3, [&] { bytes = core::SerializeModel(t.model); }),
          "ns");
  out.Add("model_io.bytes", static_cast<double>(bytes.size()), "B");
  out.Add("model_io.deserialize_s", TimeMedianNs(3, [&] {
            (void)core::DeserializeModel(bytes);
          }),
          "ns");

  // Fold-in of the first 256 rows against the fitted model: the read path
  // at this workload's model shape.
  Batch batch;
  batch.x = t.normalized.Block(0, 0, kBatchRows, t.normalized.cols());
  batch.observed = Mask(kBatchRows, batch.x.cols());
  std::set<std::vector<bool>> seen;
  for (Index i = 0; i < kBatchRows; ++i) {
    std::vector<bool> obs(static_cast<size_t>(batch.x.cols()));
    for (Index j = 0; j < batch.x.cols(); ++j) {
      obs[static_cast<size_t>(j)] = t.csv.observed.Contains(i, j);
      batch.observed.Set(i, j, obs[static_cast<size_t>(j)]);
    }
    seen.insert(std::move(obs));
  }
  batch.truth = batch.x;
  batch.expect_landmark = kBatchRows;
  batch.groups = static_cast<Index>(seen.size());
  std::vector<const Batch*> served;
  std::vector<double> traced_ns, ns_4t, ns_1t;
  telemetry::MetricsRegistry::Global().ResetForTesting();
  telemetry::SetEnabled(true);
  for (int r = 0; r < kReplayRepeats; ++r) {
    run.checks.BeginOp();
    ServeResult sr = ServeBatch(t.model, batch, tr);
    CheckBatch(t.model, batch, sr, r, run.checks, nullptr, nullptr);
    traced_ns.push_back(static_cast<double>(sr.ns));
    served.push_back(&batch);
  }
  telemetry::SetEnabled(false);
  (void)FoldInTelemetry(served, traced_ns, out);
  for (int r = 0; r < kReplayRepeats; ++r) {
    ns_4t.push_back(static_cast<double>(ServeBatch(t.model, batch, tr).ns));
  }
  smfl::parallel::SetParallelism(1);
  for (int r = 0; r < kReplayRepeats; ++r) {
    ns_1t.push_back(static_cast<double>(ServeBatch(t.model, batch, tr).ns));
  }
  smfl::parallel::SetParallelism(threads);
  out.Add("parallel.foldin_speedup_4t", Median(ns_1t) / Median(ns_4t),
          "ratio");
  out.Add("foldin.batch_p99_s", Percentile(ns_4t, 0.99), "ns");
  CheckGraphStep(t.normalized, t.csv.observed, run.checks);
}

void RunServe(const Args& a, RunOutput& run) {
  Measurements& out = run.measurements;
  Tracer& tr = run.tracer;
  if (a.trace == 0) {
    // The set-up trains at one thread. At 5000 rows the fit is bound by
    // waking the pool's workers, so at 4 threads it is no faster and its
    // time swings twofold with the host's scheduling, which would bury the
    // set-up work setup_s is there to show. The traced run still fits at
    // both thread counts (parallel.fit_speedup_4t).
    Result<ServeSetup> s = RepeatSetUp(a, run, [&] {
      smfl::parallel::ScopedParallelism one_thread(1);
      return SetUpServe(a.seed, a.work_dir, tr);
    });
    if (!s.ok()) return;
    // Warm-up: caches and the thread pool, not measured.
    for (size_t b = 0; b < 8; ++b) {
      (void)ServeBatch(s->model, s->batches[b], tr);
    }
    std::vector<double> batch_ns, batch_cpu_ns;
    std::vector<bool> scored(s->batches.size(), false);
    double sq = 0.0;
    Index count = 0;
    const int64_t start = NowNs();
    for (size_t i = 0; batch_ns.empty() ||
                       static_cast<double>(NowNs() - start) < a.seconds * 1e9;
         ++i) {
      const size_t b = i % s->batches.size();
      run.checks.BeginOp();
      ServeResult r = ServeBatch(s->model, s->batches[b], tr);
      batch_ns.push_back(static_cast<double>(r.ns));
      batch_cpu_ns.push_back(static_cast<double>(r.cpu_ns));
      const bool first = !scored[b];
      scored[b] = true;
      CheckBatch(s->model, s->batches[b], r, static_cast<Index>(i * 37),
                 run.checks, first ? &sq : nullptr, first ? &count : nullptr);
    }
    EndToEndJobs(batch_ns, batch_cpu_ns, run);
    out.Add("rmse_hidden", Rms(sq, count), "normalized");
    CheckGraphStep(s->trained.normalized, s->trained.csv.observed,
                   run.checks);
    return;
  }

  // Traced run: the set-up three times, like the impute job: A with the
  // benchmark's spans only, B with library telemetry on (the training
  // fit's layers), C at one thread. Then serving passes A, B and C.
  tr.set_on(true);
  const core::SmflOptions opt = FitOptions(500);
  const int threads = smfl::parallel::Parallelism();
  const auto traced_set_up = [&](bool telemetry_on, int64_t* run_id) {
    run.checks.BeginOp();
    telemetry::SetEnabled(telemetry_on);
    *run_id = tr.NewRun();
    Result<ServeSetup> r = SetUpServe(a.seed, a.work_dir, tr);
    telemetry::SetEnabled(false);
    run.checks.ExpectOk(r.status(), "set-up");
    return r;
  };
  int64_t run_a = 0, run_b = 0, run_c = 0;
  Result<ServeSetup> s_a = traced_set_up(false, &run_a);
  telemetry::MetricsRegistry::Global().ResetForTesting();
  Result<ServeSetup> s = traced_set_up(true, &run_b);
  smfl::parallel::SetParallelism(1);
  Result<ServeSetup> s_c = traced_set_up(false, &run_c);
  smfl::parallel::SetParallelism(threads);
  if (!s_a.ok() || !s.ok() || !s_c.ok()) return;
  const core::SmflModel& trained_model = s->trained.model;
  FitTelemetry(tr.Ns("core.fit", run_b), trained_model.report, out);
  run.checks.Expect(ObjectiveMonotone(trained_model.report.objective_trace),
                    "objective trace increased");
  run.checks.Expect(core::LandmarksIntact(s->model.v, s->model.landmarks),
                    "landmark columns of V changed");
  const std::string model_bytes = core::SerializeModel(s->model);
  run.checks.Expect(core::SerializeModel(s_a->model) == model_bytes &&
                        core::SerializeModel(s_c->model) == model_bytes,
                    "model differs between 1 and " + std::to_string(threads) +
                        " threads");
  out.Add("parallel.fit_speedup_4t",
          tr.Ns("core.fit", run_c) / tr.Ns("core.fit", run_a), "ratio");
  out.Add("data.parse_s", tr.Ns("data.parse", run_b), "ns");
  out.Add("data.normalize_s", tr.Ns("data.normalize", run_b), "ns");
  out.Add("data.write_s", tr.Ns("data.write", run_b), "ns");
  out.Add("spatial.graph_build_s", tr.Ns("spatial.graph_build", run_b), "ns");
  out.Add("model_io.serialize_s", tr.Ns("model_io.serialize", run_b), "ns");
  out.Add("model_io.deserialize_s", tr.Ns("model_io.deserialize", run_b),
          "ns");
  out.Add("model_io.bytes", static_cast<double>(model_bytes.size()), "B");

  // Replays on the training table.
  const Trained* trained = &s->trained;
  out.Add("spatial.graph_edges", static_cast<double>(trained->graph_edges),
          "count");
  out.Add("core.recover_s", TimeMedianNs(kReplayRepeats, [&] {
            (void)data::CombineByMask(trained->normalized,
                                      trained->model.Reconstruct(),
                                      trained->csv.observed);
          }),
          "ns");
  ReplayKernels(trained->normalized, trained->csv.observed, trained->model,
                out);
  ReplayLandmarks(trained->normalized, opt, out);

  // Serving passes; each returns the per-call times (ns).
  double sq = 0.0;
  Index count = 0;
  // Serves kTracedServeBatches batches, and keeps serving until `seconds`
  // have passed; the fingerprint covers the first kTracedServeBatches.
  const auto serve_pass = [&](bool telemetry_on, double seconds, uint64_t* fp,
                              std::vector<const Batch*>* served) {
    const bool score = count == 0;
    std::vector<double> ns;
    telemetry::SetEnabled(telemetry_on);
    const int64_t start = NowNs();
    for (Index i = 0; i < kTracedServeBatches ||
                      static_cast<double>(NowNs() - start) < seconds * 1e9;
         ++i) {
      const Batch& batch = s->batches[static_cast<size_t>(i % kPoolBatches)];
      tr.NewRun();
      run.checks.BeginOp();
      ServeResult r = ServeBatch(s->model, batch, tr);
      ns.push_back(static_cast<double>(r.ns));
      const bool first_visit = score && i < kPoolBatches;
      CheckBatch(s->model, batch, r, i * 37, run.checks,
                 first_visit ? &sq : nullptr, first_visit ? &count : nullptr);
      if (i < kTracedServeBatches) *fp = Fingerprint(r.out, *fp);
      if (served != nullptr) served->push_back(&batch);
    }
    telemetry::SetEnabled(false);
    return ns;
  };
  uint64_t fp_a = 0, fp_b = 0, fp_c = 0;
  const std::vector<double> untraced_ns =
      serve_pass(false, a.seconds, &fp_a, nullptr);
  const double untraced = Median(untraced_ns);
  telemetry::MetricsRegistry::Global().ResetForTesting();
  std::vector<const Batch*> served;
  const std::vector<double> traced_ns = serve_pass(true, 0.0, &fp_b, &served);
  const double residue_ns = FoldInTelemetry(served, traced_ns, out);
  run.checks.Expect(Histo("foldin.batch").count > 0,
                    "library telemetry recorded nothing");
  smfl::parallel::SetParallelism(1);
  const double one_thread = Median(serve_pass(false, 0.0, &fp_c, nullptr));
  smfl::parallel::SetParallelism(threads);
  run.checks.BeginOp();
  run.checks.Expect(fp_a == fp_c && fp_a == fp_b,
                    "served rows differ between 1 and " +
                        std::to_string(threads) + " threads");
  const double traced = Median(traced_ns);
  double traced_mean = 0.0;
  for (const double ns : traced_ns) traced_mean += ns;
  traced_mean /= static_cast<double>(traced_ns.size());
  out.Add("job_s", untraced, "ns");
  out.Add("foldin.batch_p99_s", Percentile(untraced_ns, 0.99), "ns");
  out.Add("rmse_hidden", Rms(sq, count), "normalized");
  out.Add("trace.job_s", traced, "ns");
  out.Add("trace.overhead", traced / untraced, "ratio");
  out.Add("trace.untraced_s", residue_ns, "ns");
  out.Add("trace.untraced_share", residue_ns / traced_mean, "ratio");
  out.Add("parallel.foldin_speedup_4t", one_thread / untraced, "ratio");
  CheckGraphStep(s->trained.normalized, s->trained.csv.observed, run.checks);
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "expected --name=value, got '" + arg + "'";
      return false;
    }
    const std::string key = arg.substr(2, eq - 2), value = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        a->workload = value;
      } else if (key == "seed") {
        a->seed = std::stoull(value);
      } else if (key == "seconds") {
        a->seconds = std::stod(value);
      } else if (key == "trace") {
        a->trace = std::stoi(value);
      } else if (key == "work-dir") {
        a->work_dir = value;
      } else {
        *error = "unknown flag --" + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for --" + key + ": '" + value + "'";
      return false;
    }
  }
  if (a->trace != 0 && a->trace != 1) {
    *error = "--trace must be 0 or 1";
    return false;
  }
  if (!(a->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "smfl_perfbench: %s\n", error.c_str());
    return 2;
  }
  smfl::parallel::SetParallelism(static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u)));
  telemetry::SetEnabled(false);

  RunOutput run;
  if (args.workload == kImputeTall.name) {
    RunImpute(kImputeTall, args, run);
  } else if (args.workload == kImputeSparseWide.name) {
    RunImpute(kImputeSparseWide, args, run);
  } else if (args.workload == "foldin_serve") {
    RunServe(args, run);
  } else {
    std::fprintf(stderr, "smfl_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::string spans_path;
  if (args.trace == 1) {
    spans_path = args.work_dir + "/" + args.workload + "-spans.json";
    run.checks.BeginOp();
    run.checks.ExpectOk(run.tracer.Write(spans_path), "write spans");
  }
  const std::string provenance = ProvenanceJson(args);
  std::printf(
      "{\"workload\":%s,\"trace\":%d,\"provenance\":%s,\"attempted\":%lld,"
      "\"failed\":%lld,\"failures\":%s,\"spans_file\":%s,\"measurements\":%s}"
      "\n",
      JsonString(args.workload).c_str(), args.trace, provenance.c_str(),
      static_cast<long long>(run.checks.attempted()),
      static_cast<long long>(run.checks.failed()),
      run.checks.FailuresJson().c_str(), JsonString(spans_path).c_str(),
      run.measurements.Json().c_str());
  return 0;
}
