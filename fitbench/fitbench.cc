// fitbench: end-to-end fit benchmark for the RHCHME library.
//
// One process runs one workload: it generates the workload's corpus from
// --seed, round-trips it through SaveDataset/LoadDataset, runs one warm-up
// job, then times jobs for --seconds seconds and prints one JSON result
// line. Every job's output is checked. --trace 1 instead times each layer
// from outside (spans around calls into each module's public functions)
// and reports the per-layer metrics. fitbench/run.py builds this binary
// and is the command to run; fitbench/README.md documents the workloads
// and metrics.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "rhchme/rhchme.h"
#include "spans.h"
#include "util/parallel.h"

#ifndef FITBENCH_BUILD_TYPE
#define FITBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FITBENCH_COMPILER
#define FITBENCH_COMPILER "unknown"
#endif

namespace {

using namespace rhchme;
using fitbench::Clock;
using fitbench::ScopedSpan;
using fitbench::SpanRecorder;
namespace fs = std::filesystem;

double Between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in [0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "fitbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// ---- Workloads --------------------------------------------------------------

struct GridPoint {
  double lambda;
  double beta;
};

struct Workload {
  std::string name;
  data::SyntheticCorpusOptions corpus;
  core::RhchmeOptions fit;
  /// Parameter points; one job runs one point. Fit workloads have one.
  std::vector<GridPoint> grid;
  /// Build the ensemble once in set-up and run FitWithEnsemble per job
  /// (the Fig. 2 sweep usage) instead of a whole Fit per job.
  bool shared_ensemble = false;
  /// Output check: every job's document NMI must stay at or above this.
  double nmi_floor = 0.0;
};

/// Shrinks a corpus to toy size for the smoke mode.
void MakeToy(data::SyntheticCorpusOptions* c, std::size_t max_classes) {
  if (c->docs_per_class.size() > max_classes) {
    c->docs_per_class.resize(max_classes);
  }
  for (std::size_t& d : c->docs_per_class) {
    d = std::max<std::size_t>(4, d / 5);
  }
  c->topics_per_class = 2;
  c->core_terms_per_topic = 5;
  c->n_terms = 12 * c->docs_per_class.size() + 40;
  c->n_concepts = 10 * c->docs_per_class.size() + 30;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool toy,
                  Workload* w) {
  w->name = name;
  w->grid = {{w->fit.lambda, w->fit.beta}};  // Paper defaults.
  // NMI floors sit about 4% below the lowest per-job document NMI seen
  // over seeds 0-30 at every grid point (paper-d4 0.869, sweep-d3 0.825,
  // sparse-corpus 0.764), and far above what a broken solver scores.
  if (name == "paper-d4") {
    w->corpus = data::ReutersTop10Preset();
    w->nmi_floor = 0.84;
  } else if (name == "sweep-d3") {
    w->corpus = data::ReutersMin20Max200Preset();
    w->grid = {{1.0, 50.0}, {1.0, 300.0}, {250.0, 50.0}, {250.0, 300.0}};
    w->shared_ensemble = true;
    w->fit.checkpoint_every = 10;
    w->nmi_floor = 0.79;
  } else if (name == "sparse-corpus") {
    w->corpus = data::ReutersTop10Preset();
    for (std::size_t& d : w->corpus.docs_per_class) d *= 2;
    w->corpus.n_terms = 4000;
    w->corpus.n_concepts = 3000;
    // An n_k = 4000 subspace SPG is out of budget; the pNN-only ensemble
    // is the cheap construction RMC argues for at scale.
    w->fit.ensemble.include_subspace = false;
    w->nmi_floor = 0.73;
  } else {
    return false;
  }
  if (toy) {
    MakeToy(&w->corpus, w->shared_ensemble ? 8 : 5);
    w->fit.max_iterations = 20;
    w->nmi_floor = 0.0;  // Toy corpora are too small for a quality floor.
  }
  w->corpus.seed = DeriveStreamSeed(w->corpus.seed, seed);
  return true;
}

// ---- Set-up -----------------------------------------------------------------

struct Setup {
  data::MultiTypeRelationalData data;
  std::vector<double> round_s;  ///< Generation + save + load, per repeat.
  std::vector<double> load_s;   ///< LoadDataset alone, per repeat.
  double dataset_mb = 0.0;
};

bool SameMatrix(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.row_ptr(i), b.row_ptr(i), a.cols() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

/// The loaded dataset must equal the generated one bit for bit.
bool SameDataset(const data::MultiTypeRelationalData& a,
                 const data::MultiTypeRelationalData& b) {
  if (a.NumTypes() != b.NumTypes()) return false;
  for (std::size_t k = 0; k < a.NumTypes(); ++k) {
    const data::ObjectType& ta = a.Type(k);
    const data::ObjectType& tb = b.Type(k);
    if (ta.count != tb.count || ta.clusters != tb.clusters ||
        ta.labels != tb.labels || !SameMatrix(ta.features, tb.features)) {
      return false;
    }
    for (std::size_t l = k + 1; l < a.NumTypes(); ++l) {
      if (a.HasRelation(k, l) != b.HasRelation(k, l)) return false;
      if (a.HasRelation(k, l) &&
          !SameMatrix(a.Relation(k, l), b.Relation(k, l))) {
        return false;
      }
    }
  }
  return true;
}

double DirectoryMb(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Generates the corpus and round-trips it through the io layer
/// `repeats` times; the last loaded copy is what every job sees.
Setup RunSetup(const Workload& w, const fs::path& run_dir, int repeats) {
  Setup s;
  const fs::path dir = run_dir / "dataset";
  for (int r = 0; r < repeats; ++r) {
    fs::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    Result<data::MultiTypeRelationalData> gen =
        data::GenerateSyntheticCorpus(w.corpus);
    Check(gen.status(), "GenerateSyntheticCorpus");
    Check(io::SaveDataset(gen.value(), dir.string()), "SaveDataset");
    const Clock::time_point t1 = Clock::now();
    Result<data::MultiTypeRelationalData> loaded =
        io::LoadDataset(dir.string());
    const Clock::time_point t2 = Clock::now();
    Check(loaded.status(), "LoadDataset");
    s.round_s.push_back(Between(t0, t2));
    s.load_s.push_back(Between(t1, t2));
    if (!SameDataset(gen.value(), loaded.value())) {
      Die("LoadDataset did not return the dataset SaveDataset wrote");
    }
    s.data = std::move(loaded).value();
  }
  s.dataset_mb = DirectoryMb(dir);
  fs::remove_all(dir);
  return s;
}

/// Restarts the kernel's peak-RSS counter (VmHWM), so a peak read after a
/// job covers that job alone. Dies where /proc/self/clear_refs cannot be
/// written: the peak would then cover the whole process, set-up included.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !ok) {
    Die("cannot reset the peak RSS counter through /proc/self/clear_refs");
  }
}

/// Peak resident set in MiB since the last ResetPeakRss (VmHWM).
double PeakRssMb() {
  double kb = -1.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
    }
    std::fclose(f);
  }
  if (kb <= 0) Die("cannot read VmHWM from /proc/self/status");
  return kb / 1024.0;
}

/// CPUs this process may run on; the thread pool gets one thread each.
int PoolThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// User + system CPU seconds of every thread of this process so far.
double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU time the hypervisor gave other guests while this machine's CPUs
/// wanted to run (the "steal" column of /proc/stat), summed over CPUs;
/// 0 where the kernel does not report it.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  const long ticks = sysconf(_SC_CLK_TCK);
  return got == 8 && ticks > 0
             ? static_cast<double>(v[7]) / static_cast<double>(ticks)
             : 0.0;
}

// ---- Jobs and the output check ----------------------------------------------

struct JobResult {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
  double cpu_seconds = 0.0;    ///< Process CPU time during the job.
  double steal_seconds = 0.0;  ///< Machine-wide CPU steal during the job.
  double peak_rss_mb = 0.0;    ///< Untraced jobs only.
  std::vector<std::vector<std::size_t>> labels;
  double nmi_docs = 0.0;
  double fscore_docs = 0.0;
  double nmi_types_mean = 0.0;
  // Traced jobs only.
  double ensemble_s = 0.0;
  double solver_init_s = 0.0;
  std::vector<double> iter_s;  ///< Gaps that write no snapshot.
  int iterations = 0;
  bool converged = false;
  std::size_t recovery_events = 0;
  int snapshots = 0;
  std::size_t dense_nxn_allocs = 0;
  std::size_t laplacian_nnz = 0;
  la::Matrix g;
};

class Runner {
 public:
  Runner(const Workload& w, const data::MultiTypeRelationalData& data,
         const fs::path& run_dir, SpanRecorder* rec)
      : w_(w),
        data_(data),
        blocks_(fact::BuildBlockStructure(data)),
        run_dir_(run_dir),
        rec_(rec),
        reference_(w.grid.size()) {}

  /// Builds the shared ensemble of a sweep workload; returns its seconds.
  double BuildSharedEnsemble() {
    ScopedSpan span(rec_, "ensemble.build", -1);
    const Clock::time_point t0 = Clock::now();
    Result<core::HeterogeneousEnsemble> e =
        core::BuildEnsemble(data_, blocks_, w_.fit.ensemble);
    const Clock::time_point t1 = Clock::now();
    Check(e.status(), "BuildEnsemble");
    shared_ = std::move(e).value();
    return Between(t0, t1);
  }

  core::RhchmeOptions OptionsAt(std::size_t point) const {
    core::RhchmeOptions opts = w_.fit;
    opts.lambda = w_.grid[point].lambda;
    opts.beta = w_.grid[point].beta;
    if (opts.checkpoint_every > 0) {
      opts.checkpoint_path = CheckpointPath().string();
    }
    return opts;
  }

  fs::path CheckpointPath() const { return run_dir_ / "sweep.rhs1"; }

  /// Runs one job at grid `point` and checks its output. A traced job
  /// calls the layers one by one under spans; an untraced job makes the
  /// single public call a user would make.
  JobResult Run(std::size_t point, bool traced) {
    const int job = next_job_++;
    ++attempted_;
    const double cpu0 = ProcessCpuSeconds();
    const double steal0 = StealSeconds();
    JobResult r = traced ? RunTraced(point, job) : RunUntraced(point);
    r.cpu_seconds = ProcessCpuSeconds() - cpu0;
    r.steal_seconds = StealSeconds() - steal0;
    if (r.ok) CheckOutput(point, &r);
    if (!r.ok) {
      ++failed_;
      std::fprintf(stderr, "fitbench: job %d (point %zu) failed: %s\n", job,
                   point, r.error.c_str());
    } else {
      std::fprintf(stderr,
                   "fitbench: job %d point %zu%s %.3f s cpu %.3f s steal "
                   "%.2f s nmi_docs %.4f\n",
                   job, point, traced ? " traced" : "", r.seconds,
                   r.cpu_seconds, r.steal_seconds, r.nmi_docs);
    }
    return r;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const fact::BlockStructure& blocks() const { return blocks_; }

 private:
  void Finish(Result<core::RhchmeResult> res, JobResult* r) {
    if (!res.ok()) {
      r->error = res.status().ToString();
      return;
    }
    const core::RhchmeResult& v = res.value();
    r->ok = true;
    r->labels = v.hocc.labels;
    r->iterations = v.hocc.iterations;
    r->converged = v.hocc.converged;
    r->recovery_events = v.diagnostics.RecoveryEvents();
    r->snapshots = v.diagnostics.snapshots_written;
    r->laplacian_nnz = v.ensemble.laplacian.nnz();
    r->g = v.hocc.g;
  }

  JobResult RunUntraced(std::size_t point) {
    JobResult r;
    const core::Rhchme solver(OptionsAt(point));
    ResetPeakRss();
    const Clock::time_point t0 = Clock::now();
    Result<core::RhchmeResult> res =
        w_.shared_ensemble ? solver.FitWithEnsemble(data_, shared_)
                           : solver.Fit(data_);
    r.seconds = Between(t0, Clock::now());
    r.peak_rss_mb = PeakRssMb();
    Finish(std::move(res), &r);
    return r;
  }

  JobResult RunTraced(std::size_t point, int job) {
    JobResult r;
    core::Rhchme solver(OptionsAt(point));
    std::vector<Clock::time_point> ticks;
    std::vector<int> tick_iter;
    ticks.reserve(static_cast<std::size_t>(w_.fit.max_iterations) + 1);
    tick_iter.reserve(ticks.capacity());
    solver.SetIterationCallback(
        [&ticks, &tick_iter](int t, const la::Matrix&) {
          ticks.push_back(Clock::now());
          tick_iter.push_back(t);
        });

    ScopedSpan job_span(rec_, "job", job);
    const Clock::time_point t0 = Clock::now();
    core::HeterogeneousEnsemble own;
    const core::HeterogeneousEnsemble* ensemble = &shared_;
    if (!w_.shared_ensemble) {
      ScopedSpan span(rec_, "ensemble.build", job);
      Result<core::HeterogeneousEnsemble> e =
          core::BuildEnsemble(data_, blocks_, w_.fit.ensemble);
      if (!e.ok()) {
        r.error = e.status().ToString();
        return r;
      }
      own = std::move(e).value();
      ensemble = &own;
      r.ensemble_s = Between(t0, Clock::now());
    }
    Result<core::RhchmeResult> res = Status::Internal("not run");
    {
      ScopedSpan span(rec_, "solver.fit_with_ensemble", job);
      const std::size_t n = blocks_.total_objects();
      la::memstats::StartTracking(n * n);
      const Clock::time_point f0 = Clock::now();
      res = solver.FitWithEnsemble(data_, *ensemble);
      const Clock::time_point f1 = Clock::now();
      la::memstats::StopTracking();
      r.dense_nxn_allocs = la::memstats::LargeAllocations();
      // Iteration spans from the callback timestamps: init runs from the
      // call to the first callback, iteration t from callback t-1 to t.
      // The solver writes a snapshot right after callback t when t is a
      // multiple of checkpoint_every; those gaps are kept out of iter_s so
      // it times the solver alone.
      if (!ticks.empty()) {
        r.solver_init_s = Between(f0, ticks.front());
        rec_->Add("solver.init", f0, ticks.front(), span.id(), job);
        const int every = w_.fit.checkpoint_every;
        for (std::size_t i = 1; i < ticks.size(); ++i) {
          const bool snapshot = every > 0 && tick_iter[i - 1] % every == 0;
          if (!snapshot) r.iter_s.push_back(Between(ticks[i - 1], ticks[i]));
          rec_->Add(snapshot ? "solver.iteration+snapshot" : "solver.iteration",
                    ticks[i - 1], ticks[i], span.id(), job);
        }
        rec_->Add("solver.finish", ticks.back(), f1, span.id(), job);
      }
    }
    r.seconds = Between(t0, Clock::now());
    Finish(std::move(res), &r);
    return r;
  }

  /// Labels must be bit-identical to the first job at the same point, and
  /// document NMI must stay at or above the workload's floor.
  void CheckOutput(std::size_t point, JobResult* r) {
    if (r->labels.size() != data_.NumTypes()) {
      r->ok = false;
      r->error = "wrong number of label vectors";
      return;
    }
    double nmi_sum = 0.0;
    std::size_t scored = 0;
    for (std::size_t k = 0; k < data_.NumTypes(); ++k) {
      const std::vector<std::size_t>& truth = data_.Type(k).labels;
      if (r->labels[k].size() != data_.Type(k).count) {
        r->ok = false;
        r->error = "label vector length mismatch";
        return;
      }
      if (truth.empty()) continue;
      Result<double> nmi = eval::Nmi(truth, r->labels[k]);
      if (!nmi.ok()) {
        r->ok = false;
        r->error = nmi.status().ToString();
        return;
      }
      nmi_sum += nmi.value();
      ++scored;
      if (k == 0) {
        r->nmi_docs = nmi.value();
        Result<double> f = eval::FScore(truth, r->labels[k]);
        if (!f.ok()) {
          r->ok = false;
          r->error = f.status().ToString();
          return;
        }
        r->fscore_docs = f.value();
      }
    }
    r->nmi_types_mean =
        scored > 0 ? nmi_sum / static_cast<double>(scored) : 0.0;
    if (reference_[point].empty()) {
      reference_[point] = r->labels;
    } else if (reference_[point] != r->labels) {
      r->ok = false;
      r->error = "labels differ from the first job's at this point";
      return;
    }
    if (r->nmi_docs < w_.nmi_floor) {
      r->ok = false;
      r->error = "nmi_docs " + std::to_string(r->nmi_docs) + " below floor " +
                 std::to_string(w_.nmi_floor);
    }
  }

  const Workload& w_;
  const data::MultiTypeRelationalData& data_;
  const fact::BlockStructure blocks_;
  const fs::path run_dir_;
  SpanRecorder* rec_;
  core::HeterogeneousEnsemble shared_;
  std::vector<std::vector<std::vector<std::size_t>>> reference_;
  int next_job_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
};

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Runner& runner, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              runner.failed() == 0 ? "true" : "false", runner.attempted(),
              runner.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintContext() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("{\"simd\": \"%s\", \"simd_detected\": \"%s\", "
              "\"pool_threads\": %d, \"nproc\": %ld, \"build_type\": \"%s\", "
              "\"ndebug\": %s, \"compiler\": \"%s\"}\n",
              la::simd::IsaName(), la::simd::DetectedIsaName(), PoolThreads(),
              sysconf(_SC_NPROCESSORS_ONLN), FITBENCH_BUILD_TYPE,
              ndebug ? "true" : "false", FITBENCH_COMPILER);
}

// ---- Per-layer replays (traced run) -----------------------------------------

/// Calls `fn` `reps` times and returns the median seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(Between(t0, Clock::now()));
  }
  return Median(t);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string run_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--toy") {
      a.toy = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--run-dir") {
      a.run_dir = val;
    } else {
      Die("unknown argument " + key);
    }
  }
  return a;
}

/// Set-up repeats of generation + io round trip; setup_s takes their
/// median so one slow repeat does not move it.
constexpr int kSetupRepeats = 3;
/// Minimum measured grid passes, so every run has a median to report.
constexpr int kMinPasses = 2;

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--print-context") {
    PrintContext();
    return 0;
  }
  const Args args = ParseArgs(argc, argv);
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.toy, &w)) {
    Die("unknown workload '" + args.workload + "'");
  }
  const int threads = PoolThreads();
  util::SetNumThreads(threads);
  const fs::path run_dir = args.run_dir;
  fs::create_directories(run_dir);
  SpanRecorder rec(args.trace);

  // ---- Set-up: generation, io round trip, shared ensemble, warm-up.
  const Setup setup = [&] {
    ScopedSpan span(&rec, "setup.dataset", -1);
    return RunSetup(w, run_dir, kSetupRepeats);
  }();
  Runner runner(w, setup.data, run_dir, &rec);
  const double shared_ensemble_s =
      w.shared_ensemble ? runner.BuildSharedEnsemble() : 0.0;
  double setup_s = Median(setup.round_s) + shared_ensemble_s;
  {
    ScopedSpan span(&rec, "setup.warmup", -1);
    const JobResult warm = runner.Run(0, /*traced=*/false);
    setup_s += warm.seconds;
  }

  // ---- Measured loop: whole passes over the grid until time is up. The
  // traced run pairs each untraced job with a traced one at the same
  // point, which gives the tracing overhead.
  const std::size_t points = w.grid.size();
  std::vector<std::vector<double>> untraced_s(points);
  std::vector<double> peak_rss;
  std::vector<double> overhead;
  std::vector<JobResult> traced_first(points);  // First traced job per point.
  std::vector<double> ensemble_s, init_s, iter_s;
  int traced_jobs = 0, traced_converged = 0;
  std::vector<double> nmi(points), fscore(points), nmi_types(points);
  const Clock::time_point loop_start = Clock::now();
  double last_pass_s = 0.0;
  for (int pass = 0;; ++pass) {
    const double elapsed = Between(loop_start, Clock::now());
    if (pass >= kMinPasses && elapsed + last_pass_s > args.seconds) break;
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t p = 0; p < points; ++p) {
      // A failed job shows only in ok_frac and correct, never in the
      // timings or quality figures.
      const JobResult u = runner.Run(p, /*traced=*/false);
      if (u.ok) {
        untraced_s[p].push_back(u.seconds);
        peak_rss.push_back(u.peak_rss_mb);
        nmi[p] = u.nmi_docs;
        fscore[p] = u.fscore_docs;
        nmi_types[p] = u.nmi_types_mean;
      }
      if (!args.trace) continue;
      JobResult t = runner.Run(p, /*traced=*/true);
      if (!t.ok) continue;
      ++traced_jobs;
      traced_converged += t.converged ? 1 : 0;
      if (u.seconds > 0) overhead.push_back(t.seconds / u.seconds - 1.0);
      if (!w.shared_ensemble) ensemble_s.push_back(t.ensemble_s);
      init_s.push_back(t.solver_init_s);
      iter_s.insert(iter_s.end(), t.iter_s.begin(), t.iter_s.end());
      if (!traced_first[p].ok) traced_first[p] = std::move(t);
    }
    last_pass_s = Between(pass_start, Clock::now());
  }
  for (std::size_t p = 0; p < points; ++p) {
    if (untraced_s[p].empty()) {
      Die("no job at grid point " + std::to_string(p) + " passed its check");
    }
  }
  // fit_s: mean over grid points of each point's median job time, so a
  // run's mix of points never changes what it reports.
  double fit_s = 0.0;
  for (const auto& t : untraced_s) fit_s += Median(t);
  fit_s /= static_cast<double>(points);
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };

  std::error_code ignored;  // Workloads without snapshots have no file.
  if (!args.trace) {
    fs::remove(runner.CheckpointPath(), ignored);
    PrintResult(runner,
                {{"fit_s", fit_s, "s"},
                 {"setup_s", setup_s, "s"},
                 {"peak_rss_mb", Median(peak_rss), "MB"},
                 {"nmi_docs", mean(nmi), "ratio"},
                 {"fscore_docs", mean(fscore), "ratio"},
                 {"nmi_types_mean", mean(nmi_types), "ratio"},
                 {"ok_frac",
                  static_cast<double>(runner.attempted() - runner.failed()) /
                      static_cast<double>(runner.attempted()),
                  "ratio"}});
    return 0;
  }

  // ---- Traced run: exact counters summed over one pass of the grid.
  for (const JobResult& t : traced_first) {
    if (!t.ok) Die("a grid point has no traced job that passed its check");
  }
  int iterations = 0, snapshots = 0;
  std::size_t recovery = 0, dense_allocs = 0, lap_nnz = 0;
  for (const JobResult& t : traced_first) {
    iterations += t.iterations;
    snapshots += t.snapshots;
    recovery += t.recovery_events;
    dense_allocs += t.dense_nxn_allocs;
    lap_nnz = t.laplacian_nnz;
  }
  const data::MultiTypeRelationalData& data = setup.data;
  const std::size_t num_types = data.NumTypes();

  // core/subspace: per-type replays of LearnSubspaceAffinity with the
  // per-type seeds BuildEnsemble derives.
  double learn_s = 0.0, spg_converged = 0.0;
  std::size_t spg_steps = 0, large_allocs = 0;
  if (w.fit.ensemble.include_subspace) {
    ScopedSpan span(&rec, "replay.subspace", -1);
    for (std::size_t k = 0; k < num_types; ++k) {
      ScopedSpan type_span(&rec, "subspace.learn", -1);
      core::SubspaceOptions sub = w.fit.ensemble.subspace;
      sub.seed = DeriveStreamSeed(sub.seed, k);
      const std::size_t nk = data.Type(k).count;
      la::memstats::StartTracking(nk * nk);
      const Clock::time_point t0 = Clock::now();
      Result<core::SubspaceResult> res =
          core::LearnSubspaceAffinity(data.Type(k).features, sub);
      learn_s += Between(t0, Clock::now());
      la::memstats::StopTracking();
      Check(res.status(), "LearnSubspaceAffinity");
      large_allocs += la::memstats::LargeAllocations();
      spg_steps += static_cast<std::size_t>(res.value().iterations);
      spg_converged += res.value().converged ? 1.0 : 0.0;
    }
    spg_converged /= static_cast<double>(num_types);
  }

  // graph: per-type BuildKnnGraph replays and the neighbour recall of the
  // backend kAuto picks, weighted by object count (useful / attempted).
  double knn_s = 0.0, recall_num = 0.0, recall_den = 0.0;
  {
    ScopedSpan span(&rec, "replay.graph", -1);
    for (std::size_t k = 0; k < num_types; ++k) {
      graph::KnnGraphOptions knn = w.fit.ensemble.knn;
      knn.descent.seed = DeriveStreamSeed(knn.descent.seed, k);
      const la::Matrix& x = data.Type(k).features;
      {
        ScopedSpan s(&rec, "graph.knn", -1);
        const Clock::time_point t0 = Clock::now();
        Check(graph::BuildKnnGraph(x, knn).status(), "BuildKnnGraph");
        knn_s += Between(t0, Clock::now());
      }
      Result<double> recall = eval::RecallAgainstExact(x, knn);
      Check(recall.status(), "RecallAgainstExact");
      recall_num += recall.value() * static_cast<double>(x.rows());
      recall_den += static_cast<double>(x.rows());
    }
  }

  // cluster + factorization: the solver's k-means membership init, with
  // the RNG stream the solver seeds it from.
  double init_membership_s = 0.0;
  {
    ScopedSpan span(&rec, "replay.init_membership", -1);
    init_membership_s = MedianSeconds(3, [&] {
      Rng rng(w.fit.seed);
      Check(fact::InitMembership(data, runner.blocks(), w.fit.init, &rng)
                .status(),
            "InitMembership");
    });
  }

  // la: K = R·G on the workload's joint R, in the representation kAuto
  // picks, with the fit's own n x c membership. Flops and bytes are
  // computed from the shapes (compulsory traffic: R, G and K once each).
  double rg_gflops = 0.0, rg_flop_per_byte = 0.0, square_gflops = 0.0;
  {
    ScopedSpan span(&rec, "replay.la", -1);
    const la::Matrix& g = traced_first[0].g;
    const double n = static_cast<double>(g.rows());
    const double c = static_cast<double>(g.cols());
    double flops = 0.0, bytes = 0.0, t = 0.0;
    if (data.JointRDensity() <= w.fit.sparse_r_density_threshold) {
      const la::SparseMatrix r = data.BuildJointRSparse();
      const double nnz = static_cast<double>(r.nnz());
      flops = 2.0 * nnz * c;
      bytes = 16.0 * nnz + 8.0 * (n + 1.0) + 16.0 * n * c;
      t = MedianSeconds(9, [&] { (void)r.MultiplyDense(g); });
    } else {
      const la::Matrix r = data.BuildJointR();
      flops = 2.0 * n * n * c;
      bytes = 8.0 * n * n + 16.0 * n * c;
      t = MedianSeconds(9, [&] { (void)la::Multiply(r, g); });
    }
    rg_gflops = flops / t * 1e-9;
    rg_flop_per_byte = flops / bytes;

    // The SPG shape: n_k x n_k on the largest type, capped so the replay
    // stays a fraction of the run.
    std::size_t nk = 0;
    for (std::size_t k = 0; k < num_types; ++k) {
      nk = std::max(nk, data.Type(k).count);
    }
    nk = std::min<std::size_t>(nk, 1024);
    Rng rng(DeriveStreamSeed(args.seed, 7));
    const la::Matrix a = la::Matrix::RandomUniform(nk, nk, &rng);
    const la::Matrix b = la::Matrix::RandomUniform(nk, nk, &rng);
    const double ts = MedianSeconds(3, [&] { (void)la::Multiply(a, b); });
    const double dn = static_cast<double>(nk);
    square_gflops = 2.0 * dn * dn * dn / ts * 1e-9;
  }

  // core/checkpoint: the snapshot the sweep's last traced job left.
  double snapshot_kb = 0.0, snapshot_load_s = 0.0;
  if (w.fit.checkpoint_every > 0) {
    ScopedSpan span(&rec, "replay.checkpoint", -1);
    const fs::path ckpt = runner.CheckpointPath();
    snapshot_kb = static_cast<double>(fs::file_size(ckpt)) / 1024.0;
    snapshot_load_s = MedianSeconds(5, [&] {
      Check(core::LoadSolverSnapshot(ckpt.string()).status(),
            "LoadSolverSnapshot");
    });
  }

  // util/parallel: one untraced job of grid point 0 on a single thread,
  // against this run's pool-size median at the same point.
  double speedup = 0.0;
  {
    ScopedSpan span(&rec, "replay.single_thread_job", -1);
    util::SetNumThreads(1);
    const JobResult one = runner.Run(0, /*traced=*/false);
    util::SetNumThreads(threads);
    speedup = one.seconds / Median(untraced_s[0]);
  }

  fs::remove(runner.CheckpointPath(), ignored);
  const fs::path trace_path =
      run_dir / ("trace-seed" + std::to_string(args.seed) + ".json");
  if (!rec.WriteJson(trace_path.string())) {
    Die("cannot write " + trace_path.string());
  }
  std::fprintf(stderr, "fitbench: spans written to %s\n",
               trace_path.string().c_str());

  const double jobs = static_cast<double>(std::max(traced_jobs, 1));
  PrintResult(
      runner,
      {{"io.load_s", Median(setup.load_s), "s"},
       {"io.dataset_mb", setup.dataset_mb, "MB"},
       {"subspace.learn_s", learn_s, "s"},
       {"subspace.spg_steps", static_cast<double>(spg_steps), "count"},
       {"subspace.converged_frac", spg_converged, "ratio"},
       {"subspace.large_allocs", static_cast<double>(large_allocs), "count"},
       {"graph.knn_s", knn_s, "s"},
       {"graph.knn_recall", recall_den > 0 ? recall_num / recall_den : 0.0,
        "ratio"},
       {"graph.laplacian_nnz", static_cast<double>(lap_nnz), "count"},
       {"ensemble.build_s",
        w.shared_ensemble ? shared_ensemble_s : Median(ensemble_s), "s"},
       {"cluster.init_membership_s", init_membership_s, "s"},
       {"solver.init_s", Median(init_s), "s"},
       {"solver.iter_s_p50", Percentile(iter_s, 0.5), "s"},
       {"solver.iter_s_p90", Percentile(iter_s, 0.9), "s"},
       {"solver.iterations", static_cast<double>(iterations), "count"},
       {"solver.converged_frac", traced_converged / jobs, "ratio"},
       {"solver.recovery_events", static_cast<double>(recovery), "count"},
       {"la.dense_nxn_allocs", static_cast<double>(dense_allocs), "count"},
       {"la.rg_gflops", rg_gflops, "GFLOP/s"},
       {"la.rg_flop_per_byte", rg_flop_per_byte, "flop/B"},
       {"la.square_gemm_gflops", square_gflops, "GFLOP/s"},
       {"checkpoint.snapshots", static_cast<double>(snapshots), "count"},
       {"checkpoint.snapshot_kb", snapshot_kb, "KB"},
       {"checkpoint.load_s", snapshot_load_s, "s"},
       {"parallel.fit_speedup", speedup, "x"},
       {"trace.overhead_frac", Median(overhead), "ratio"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
