// perfbench: the repository benchmark.
//
// One process runs one workload from a seed. It drives the library only
// through public calls (apps generators, CsrMatrix::from_host/spmv,
// DArray::full/from_vector/fill/axpy/dot, TwoLevelGmg, solve::cg,
// Runtime::fence/metrics_snapshot/sim_time and the destructors), times them
// from outside, and reads the runtime's own counters as metrics_snapshot
// deltas. perfbench/README.md lists every metric and the layer it belongs to.
//
// A run is a sequence of cycles. A cycle is one Runtime lifetime with a
// fixed amount of work: setup, a warm-up step, `steady_steps` steady steps,
// teardown. The number of cycles is fixed by --seconds and the workload's
// nominal cycle length (at least kMinCycles), so every run of a given length
// takes the same samples, and every per-cycle quantity (counters, simulated
// time, total_s) is measured over the same work. With --trace 1 the cycles alternate untraced/traced: the
// traced ones record a span around every call into the library, and the
// untraced ones give the baseline for the tracing overhead.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--tiny] [--inject-wrong]
// --tiny shrinks every input (self-test); --inject-wrong perturbs the vector
// handed to the oracle on the last steady step of each cycle, so the failure
// accounting can be tested.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/workloads.h"
#include "baselines/ref/ref.h"
#include "metrics/metrics.h"
#include "solve/krylov.h"
#include "solve/multigrid.h"
#include "util/rng.h"

extern char** environ;

namespace {

using namespace legate;
using baselines::ref::RefCsr;
using baselines::ref::RefVector;

constexpr double kCostScale = 64.0;
/// Oracle bound, per compared vector: max |v - v_ref| <= kOracleRtol *
/// max |v_ref|, and the same relative bound on the CG residual. The runtime sums reductions per
/// partition, the reference sequentially, so results agree to rounding only.
constexpr double kOracleRtol = 1e-9;
constexpr double kSpmvAxpyScale = 1e-9;
constexpr int kMinCycles = 2;
constexpr double kDeadlineFactor = 1.25;
constexpr int kMinSetups = 5;
constexpr int kProbeCalls = 3;
constexpr int kTailBeyond = 10;
constexpr std::uint64_t kZipfPatternSeed = 97;
constexpr std::uint64_t kValueStream = 0x7273;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest integer percentile q whose nearest-rank sample leaves at
/// least kTailBeyond samples above it: q = floor(100 (n - 10) / n), but
/// never below the median (fewer than 20 samples give p50).
struct Tail {
  int percentile{100};
  double value{0};
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  auto n = static_cast<long>(v.size());
  if (n <= kTailBeyond) {
    t.value = v.back();
    return t;
  }
  t.percentile = std::max(50, static_cast<int>(100 * (n - kTailBeyond) / n));
  long rank = (static_cast<long>(t.percentile) * n + 99) / 100;  // ceil(q n / 100)
  t.value = v[static_cast<std::size_t>(std::max(1L, rank) - 1)];
  return t;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { Cg, Gmg, Spmv };

struct Workload {
  const char* name;
  Kind kind;
  int procs;
  int exec_threads;
  rt::PartitionStrategy partition;
  int iters_per_step;  ///< CG iterations (cg, gmg) or spmv+axpy pairs (spmv)
  int steady_steps;    ///< per cycle; fixed so per-cycle counts repeat exactly
  double cycle_s;      ///< nominal cycle length on a 4-core x86 host
  const char* why;
};

// Why these three: cg-poisson-192 is launch-bound (every launch spans 192
// point tasks, pipelined on 2 exec threads), spmv-zipf-48 is bound by halo
// analysis and copy accounting (2 launches per iteration, skewed footprint),
// and gmg-poisson-48 reuses the same caches across many structures (two
// levels, rectangular R/P, SpGEMM-built Ac), so a gain for CG's single
// reused structure can show up as a loss here.
const Workload kWorkloads[] = {
    {"cg-poisson-192", Kind::Cg, 192, 2, rt::PartitionStrategy::Rows, 2, 8, 5.0,
     "Fig. 9 CG, launch-bound"},
    {"spmv-zipf-48", Kind::Spmv, 48, 1, rt::PartitionStrategy::Nnz, 1, 8, 2.0,
     "Zipf SpMV with x dirtied every step, halo-analysis-bound"},
    {"gmg-poisson-48", Kind::Gmg, 48, 1, rt::PartitionStrategy::Rows, 2, 8, 7.0,
     "Fig. 10 GMG-preconditioned CG, many structures"},
};

rt::RuntimeOptions options_for(const Workload& w) {
  rt::RuntimeOptions o;
  o.exec_threads = w.exec_threads;
  o.exec_pipeline = 1;
  o.partition = w.partition;
  o.fusion = rt::Fusion::On;
  o.comm = comm::Mode::Plan;
  o.diag = diag::Mode::Off;
  o.integrity = rt::Integrity::Off;
  o.faults = sim::FaultConfig{};
  return o;
}

struct Inputs {
  apps::HostProblem A;
  coord_t grid{0};          ///< Poisson grid side (cg, gmg)
  std::vector<double> vec;  ///< right-hand side b (cg, gmg) or x0 (spmv)
};

Inputs generate(const Workload& w, std::uint64_t seed, bool tiny) {
  Inputs in;
  switch (w.kind) {
    case Kind::Cg: {
      double rows = (tiny ? 64.0 : 25600.0) * w.procs;
      in.grid = static_cast<coord_t>(std::ceil(std::sqrt(rows)));
      in.A = apps::poisson2d(in.grid);
      break;
    }
    case Kind::Gmg:
      in.grid = tiny ? 64 : 664;  // even, so injection restriction divides
      in.A = apps::poisson2d(in.grid);
      break;
    case Kind::Spmv: {
      // The sparsity pattern is the comm sweep's (structure seed 97) and the
      // run's seed draws the values. The pattern's few hub rows sit at
      // seed-dependent column offsets; seeded, they spread the simulated time
      // by ~15% (interquartile range over 5 seeds at 5000 rows per GPU),
      // which would make the workload itself vary run to run.
      in.A = apps::zipf_matrix((tiny ? 200 : 2000) * w.procs, 1.05, 8, kZipfPatternSeed);
      Rng rng(seed, kValueStream);
      for (double& v : in.A.values) v = 1.0 + rng.next_double();
      in.vec.assign(static_cast<std::size_t>(in.A.rows), 1.0);
      return in;
    }
  }
  Rng rng(seed, kValueStream);
  in.vec.resize(static_cast<std::size_t>(in.A.rows));
  for (double& v : in.vec) v = 0.5 + rng.next_double();
  return in;
}

// ---------------------------------------------------------------------------
// Oracle: the same algorithm on baselines::ref, single thread, no runtime.

/// Computed (not measured) SpMV work per iteration: 2 flops per nonzero;
/// bytes = values + column indices (8 B each per nonzero), one Rect1 row
/// pointer (16 B) and one y write (8 B) per row, one x read (8 B) per column.
struct SpmvWork {
  double flops{0}, bytes{0};
  void add(const RefCsr& m, double count) {
    auto rows = static_cast<double>(m.rows()), cols = static_cast<double>(m.cols());
    auto nnz = static_cast<double>(m.nnz());
    flops += count * 2.0 * nnz;
    bytes += count * (16.0 * nnz + 24.0 * rows + 8.0 * cols);
  }
};

/// What a step produces, and what the oracle expects of it.
struct Result {
  std::vector<double> v;        ///< CG/GMG solution x, or SpMV y of the last pair
  std::vector<double> x_after;  ///< SpMV only: x after the step's last axpy
  double residual{0};           ///< CG/GMG final recursive residual
};

struct Expected {
  Result r;
  double host_s_per_iter{0};
  SpmvWork work;  ///< per iteration
};

RefVector ref_jacobi_dinv(const RefCsr& A) {
  RefVector d = A.diagonal();
  for (double& v : d.data()) v = v != 0.0 ? 1.0 / v : 0.0;
  return d;
}

/// Mirrors solve::TwoLevelGmg with its default parameters.
struct RefGmg {
  RefCsr A, R, P, Ac;
  RefVector dinv_f, dinv_c;
  static constexpr double kOmega = 2.0 / 3.0;

  RefGmg(baselines::ref::RefContext& ctx, const RefCsr& fine, coord_t grid)
      : A(fine) {
    coord_t gc = grid / 2;
    std::vector<coord_t> ip{0}, idx;
    std::vector<double> val;
    for (coord_t ic = 0; ic < gc; ++ic) {
      for (coord_t jc = 0; jc < gc; ++jc) {
        idx.push_back((2 * ic) * grid + (2 * jc));
        val.push_back(1.0);
        ip.push_back(static_cast<coord_t>(idx.size()));
      }
    }
    R = RefCsr(ctx, gc * gc, grid * grid, ip, idx, val);
    P = R.transpose();
    Ac = R.spgemm(A).spgemm(P);
    dinv_f = ref_jacobi_dinv(A);
    dinv_c = ref_jacobi_dinv(Ac);
  }
  static void jacobi(const RefCsr& op, const RefVector& dinv, RefVector& x,
                     const RefVector& b, int sweeps) {
    for (int s = 0; s < sweeps; ++s) {
      RefVector r = b.sub(op.spmv(x));
      RefVector corr = r.mul(dinv);
      x.axpy(kOmega, corr);
    }
  }
  RefVector apply(baselines::ref::RefContext& ctx, const RefVector& r) const {
    RefVector x(ctx, r.size(), 0.0);
    jacobi(A, dinv_f, x, r, 2);
    RefVector rc = R.spmv(r.sub(A.spmv(x)));
    RefVector ec(ctx, rc.size(), 0.0);
    jacobi(Ac, dinv_c, ec, rc, 16);
    x.iadd(P.spmv(ec));
    jacobi(A, dinv_f, x, r, 2);
    return x;
  }
};

Expected run_reference(const Workload& w, const Inputs& in) {
  sim::PerfParams pp;
  baselines::ref::RefContext ctx(baselines::ref::Device::ScipyCpu, pp);
  RefCsr A(ctx, in.A.rows, in.A.cols, in.A.indptr, in.A.indices, in.A.values);
  Expected e;
  int k = w.iters_per_step;
  if (w.kind == Kind::Spmv) {
    RefVector x(ctx, in.vec);
    RefVector y;
    double t0 = now_s();
    for (int i = 0; i < k; ++i) {
      y = A.spmv(x);
      x.axpy(kSpmvAxpyScale, y);
    }
    e.host_s_per_iter = (now_s() - t0) / k;
    e.work.add(A, 1.0);
    e.r.v = y.data();
    e.r.x_after = x.data();
    return e;
  }
  // Same recurrences, in the same order, as solve::cg with tol = 0.
  std::unique_ptr<RefGmg> gmg;
  e.work.add(A, 1.0);
  if (w.kind == Kind::Gmg) {
    gmg = std::make_unique<RefGmg>(ctx, A, in.grid);
    // A step of k iterations applies k + 1 V-cycles.
    double vcycles = (k + 1.0) / k;
    e.work.add(A, 5.0 * vcycles);
    e.work.add(gmg->R, vcycles);
    e.work.add(gmg->P, vcycles);
    e.work.add(gmg->Ac, 16.0 * vcycles);
  }
  RefVector b(ctx, in.vec);
  double t0 = now_s();
  RefVector x(ctx, b.size(), 0.0);
  RefVector r = b;
  RefVector z = gmg ? gmg->apply(ctx, r) : r;
  RefVector p = z;
  double rz = r.dot(z);
  double rnorm = 0;
  for (int it = 0; it < k; ++it) {
    RefVector Ap = A.spmv(p);
    double alpha = rz / p.dot(Ap);
    x.axpy(alpha, p);
    r.axpy(-alpha, Ap);
    rnorm = r.norm();
    double rz_new = rnorm * rnorm;
    if (gmg) {
      z = gmg->apply(ctx, r);
      rz_new = r.dot(z);
    }
    p.xpay(rz_new / rz, gmg ? z : r);
    rz = rz_new;
  }
  e.host_s_per_iter = (now_s() - t0) / k;
  e.r.v = x.data();
  e.r.residual = rnorm;
  return e;
}

bool within_bound(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  double scale = 0, err = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    scale = std::max(scale, std::fabs(want[i]));
    err = std::max(err, std::fabs(got[i] - want[i]));
  }
  return err <= kOracleRtol * scale;  // also rejects NaN
}

bool oracle_agrees(const Result& got, const Result& want) {
  return within_bound(got.v, want.v) && within_bound(got.x_after, want.x_after) &&
         std::fabs(got.residual - want.residual) <= kOracleRtol * std::fabs(want.residual);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const Result& a, const Result& b) {
  return same_bits(a.v, b.v) && same_bits(a.x_after, b.x_after) &&
         std::memcmp(&a.residual, &b.residual, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the benchmark ends.

class Tracer {
 public:
  struct Span {
    const char* name;
    double start, end;
    int parent;
    int step;  ///< step id, -1 outside steps
  };

  bool enabled{false};
  int step{-1};

  int open(const char* name) {
    if (!enabled) return -1;
    spans_.push_back({name, now_s(), 0.0, current_, step});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus what its children cover
  /// (spans nest strictly, so children never overlap each other).
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\":[";
    double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                    "\"step\":%d}}",
                    i ? "," : "", s.name, (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                    i, s.parent, s.step);
      f << buf;
    }
    f << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  int current_{-1};
};

class SpanGuard {
 public:
  SpanGuard(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~SpanGuard() { t_.close(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// One Runtime lifetime.

struct Instance {
  std::unique_ptr<rt::Runtime> rt;
  sparse::CsrMatrix A;
  dense::DArray vec;  ///< b (cg, gmg) or x (spmv)
  std::unique_ptr<solve::TwoLevelGmg> gmg;
};

void setup(Instance& s, const Workload& w, const Inputs& in, Tracer& tr) {
  sim::PerfParams pp;
  {
    SpanGuard sp(tr, "rt.ctor");
    s.rt = std::make_unique<rt::Runtime>(sim::Machine::gpus(w.procs, pp), options_for(w));
    s.rt->engine().set_cost_scale(kCostScale);
  }
  rt::Runtime& runtime = *s.rt;
  {
    SpanGuard sp(tr, "sparse.from_host");
    s.A = sparse::CsrMatrix::from_host(runtime, in.A.rows, in.A.cols, in.A.indptr,
                                       in.A.indices, in.A.values);
  }
  {
    SpanGuard sp(tr, "dense.rhs");
    s.vec = w.kind == Kind::Spmv ? dense::DArray::full(runtime, in.A.rows, 1.0)
                                 : dense::DArray::from_vector(runtime, in.vec);
  }
  if (w.kind == Kind::Gmg) {
    SpanGuard sp(tr, "solve.gmg_build");
    sparse::CsrMatrix R = solve::TwoLevelGmg::injection_2d(runtime, in.grid);
    s.gmg = std::make_unique<solve::TwoLevelGmg>(s.A, R);
  }
  SpanGuard sp(tr, "rt.fence");
  runtime.fence();
}

void teardown(Instance& s) {
  s.gmg.reset();
  s.vec = dense::DArray();
  s.A = sparse::CsrMatrix();
  s.rt.reset();
}

struct StepOut {
  Result r;
  int iterations{0};
  double wall{0};
  double cpu{0};
};

/// One step: fenced before timing, fenced again before the clock stops.
StepOut run_step(Instance& s, const Workload& w, Tracer& tr) {
  StepOut out;
  s.rt->fence();
  dense::DArray y;
  solve::SolveResult res;
  double c0 = cpu_s();
  double t0 = now_s();
  {
    SpanGuard step(tr, "step");
    if (w.kind == Kind::Spmv) {
      {
        SpanGuard sp(tr, "dense.fill");
        s.vec.fill(1.0);
      }
      for (int i = 0; i < w.iters_per_step; ++i) {
        {
          SpanGuard sp(tr, "sparse.spmv");
          y = s.A.spmv(s.vec);
        }
        SpanGuard sp(tr, "dense.axpy");
        s.vec.axpy(dense::Scalar{kSpmvAxpyScale}, y);
      }
    } else {
      SpanGuard sp(tr, "solve.cg");
      res = s.gmg ? solve::cg(s.A, s.vec, 0.0, w.iters_per_step, s.gmg->preconditioner())
                  : solve::cg(s.A, s.vec, 0.0, w.iters_per_step);
    }
    SpanGuard sp(tr, "rt.fence");
    s.rt->fence();
  }
  out.wall = now_s() - t0;
  out.cpu = cpu_s() - c0;
  if (w.kind == Kind::Spmv) {
    out.r.v = y.to_vector();
    out.r.x_after = s.vec.to_vector();
    out.iterations = w.iters_per_step;
  } else {
    out.r.v = res.x.to_vector();
    out.r.residual = res.residual;
    out.iterations = res.iterations;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Run state across cycles.

struct CycleStats {
  bool traced{false};
  double setup_s{0}, warmup_s{0}, teardown_s{0}, total_s{0};
  double wall_s{0};            ///< whole cycle, checks and snapshots included
  std::vector<double> steady;  ///< step wall / iterations
  std::vector<int> steady_step_ids;
  double sim_s{0};             ///< simulated seconds over the steady window
  metrics::Snapshot window;    ///< counter deltas over the steady window
  std::string fingerprint;     ///< stable counters + simulated time, exact
  double cpu_s{0};             ///< process CPU inside the steady steps
  int solve_iterations{0};
};

struct Run {
  const Workload* w{nullptr};
  bool inject_wrong{false};
  int attempted{0}, failed{0};
  int next_step{0};
  bool have_first{false};
  StepOut first;  ///< the run's first step, which every step must reproduce
  std::vector<std::string> problems;
  std::vector<CycleStats> cycles;
  std::vector<double> setup_only;  ///< extra setups (untraced) for setup_s
};

void fail(Run& run, const std::string& what) {
  ++run.failed;
  if (run.problems.size() < 20) run.problems.push_back(what);
}

/// Checks one step: identical to the run's first step and, where asked,
/// within the oracle bound. A failed check counts the step as failed.
void check_step(Run& run, StepOut& out, bool oracle, bool perturb, const Expected& e,
                int step_id) {
  if (!run.have_first) {
    run.first = out;
    run.have_first = true;
  }
  std::string id = "step " + std::to_string(step_id);
  if (out.iterations != run.w->iters_per_step && run.w->kind != Kind::Spmv) {
    fail(run, id + ": ran " + std::to_string(out.iterations) + " iterations");
    return;
  }
  if (!same_bits(out.r, run.first.r)) {
    fail(run, id + ": result differs from the run's first step");
    return;
  }
  if (!oracle) return;
  if (perturb && !out.r.v.empty()) {
    double& mid = out.r.v[out.r.v.size() / 2];
    mid += 1e-3 * (1.0 + std::fabs(mid));
  }
  if (!oracle_agrees(out.r, e.r)) {
    fail(run, id + ": disagrees with the baselines::ref oracle");
  }
}

void print_options(rt::Runtime& runtime, const Workload& w, std::uint64_t seed) {
  std::printf(
      "options: workload=%s seed=%llu procs=%d kind=gpu cost_scale=%g exec_threads=%d "
      "pipelining=%d partition=%s fusion=%s(enabled=%d) comm=%s(enabled=%d) diag=%s "
      "integrity=%s faults=%d iters_per_step=%d steady_steps_per_cycle=%d\n",
      w.name, static_cast<unsigned long long>(seed), runtime.machine().num_procs(),
      runtime.engine().cost_scale(), runtime.exec_threads(), runtime.pipelining() ? 1 : 0,
      rt::partition_strategy_name(runtime.partition_strategy()),
      rt::fusion_mode_name(runtime.fusion_mode()), runtime.fusion_enabled() ? 1 : 0,
      comm::comm_mode_name(runtime.comm_mode()), runtime.comm_enabled() ? 1 : 0,
      diag::mode_name(runtime.flight().mode()),
      runtime.integrity() == rt::Integrity::Off ? "off" : "on",
      runtime.options().faults.enabled ? 1 : 0, w.iters_per_step, w.steady_steps);
}

metrics::Snapshot snapshot(rt::Runtime& runtime, Tracer& tr) {
  SpanGuard sp(tr, "obs.snapshot");
  return runtime.metrics_snapshot();
}

/// Fenced single calls after the steady window (traced cycles only).
void run_probes(Instance& s, Tracer& tr) {
  rt::Runtime& runtime = *s.rt;
  dense::DArray x = dense::DArray::full(runtime, s.A.cols(), 1.0);
  runtime.fence();
  SpanGuard probe(tr, "probe");
  for (int i = 0; i < kProbeCalls; ++i) {
    dense::DArray y;
    {
      SpanGuard sp(tr, "sparse.spmv");
      y = s.A.spmv(x);
      runtime.fence();
    }
    {
      SpanGuard sp(tr, "dense.dot");
      volatile double d = y.dot(x).value;
      (void)d;
      runtime.fence();
    }
    SpanGuard sp(tr, "dense.axpy");
    x.axpy(dense::Scalar{kSpmvAxpyScale}, y);
    runtime.fence();
  }
}

void run_cycle(Run& run, const Inputs& in, const Expected& e, Tracer& tr, bool traced,
               std::uint64_t seed) {
  const Workload& w = *run.w;
  CycleStats c;
  c.traced = traced;
  tr.enabled = traced;
  tr.step = -1;
  Instance s;
  double t0 = now_s();
  {
    SpanGuard sp(tr, "setup");
    setup(s, w, in, tr);
  }
  c.setup_s = now_s() - t0;
  if (run.cycles.empty()) print_options(*s.rt, w, seed);

  metrics::Snapshot base;
  double sim0 = 0;
  double steps_s = 0;
  for (int i = 0; i <= w.steady_steps; ++i) {
    bool steady = i > 0;
    if (i == 1) {
      base = snapshot(*s.rt, tr);
      sim0 = s.rt->sim_time();
    }
    int id = run.next_step++;
    tr.step = id;
    ++run.attempted;
    StepOut out;
    try {
      out = run_step(s, w, tr);
    } catch (const std::exception& ex) {
      tr.step = -1;
      fail(run, "step " + std::to_string(id) + " threw: " + ex.what());
      continue;
    }
    tr.step = -1;
    steps_s += out.wall;
    bool oracle = i == 1 || i == w.steady_steps;
    bool perturb = run.inject_wrong && i == w.steady_steps;
    check_step(run, out, oracle, perturb, e, id);
    if (!steady) {
      c.warmup_s = out.wall;
      continue;
    }
    c.steady.push_back(out.wall / w.iters_per_step);
    c.steady_step_ids.push_back(id);
    c.cpu_s += out.cpu;
    c.solve_iterations = out.iterations;
  }
  metrics::Snapshot end = snapshot(*s.rt, tr);
  c.sim_s = s.rt->sim_time() - sim0;
  c.window = end.delta(base);
  char sim_bits[64];
  std::snprintf(sim_bits, sizeof sim_bits, "%a", c.sim_s);
  c.fingerprint = std::string(sim_bits) + c.window.to_json(/*stable_only=*/true);

  if (traced) run_probes(s, tr);

  double t1 = now_s();
  {
    SpanGuard sp(tr, "rt.teardown");
    teardown(s);
  }
  c.teardown_s = now_s() - t1;
  c.total_s = c.setup_s + steps_s + c.teardown_s;
  c.wall_s = now_s() - t0;
  std::printf("cycle %zu: traced=%d setup=%.4fs warmup=%.4fs steady_p50=%.5fs/iter "
              "teardown=%.4fs total=%.4fs wall=%.4fs\n",
              run.cycles.size(), traced ? 1 : 0, c.setup_s, c.warmup_s, median(c.steady),
              c.teardown_s, c.total_s, c.wall_s);
  if (!run.cycles.empty() && c.fingerprint != run.cycles.front().fingerprint) {
    run.problems.push_back("cycle " + std::to_string(run.cycles.size()) +
                           ": stable counters or simulated time differ from cycle 0");
  }
  run.cycles.push_back(std::move(c));
  tr.enabled = false;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double counter(const metrics::Snapshot& s, const char* name) {
  const metrics::Snapshot::Metric* m = s.find(name);
  if (!m) return 0.0;
  return m->kind == metrics::Kind::Histogram ? m->sum : m->value;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> concat_steady(const Run& run, bool traced) {
  std::vector<double> v;
  for (const CycleStats& c : run.cycles) {
    if (c.traced == traced) v.insert(v.end(), c.steady.begin(), c.steady.end());
  }
  return v;
}

std::vector<Metric> end_to_end(const Run& run, const Tail& tail, double p50) {
  std::vector<double> setups = run.setup_only, warm, total;
  for (const CycleStats& c : run.cycles) {
    if (c.traced) continue;
    setups.push_back(c.setup_s);
    warm.push_back(c.warmup_s);
    total.push_back(c.total_s);
  }
  const Workload& w = *run.w;
  double sim = run.cycles.empty()
                   ? 0.0
                   : run.cycles.front().sim_s / (w.steady_steps * w.iters_per_step);
  return {
      {"setup_s", median(setups), "s"},
      {"warmup_s", median(warm), "s"},
      {"iter_host_s.p50", p50, "s/iter"},
      {"iter_host_s.tail", tail.value, "s/iter"},
      {"total_s", median(total), "s"},
      {"sim_s_per_iter", sim, "s/iter"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_failed_frac", ratio(run.failed, run.attempted), "ratio"},
  };
}

std::vector<Metric> per_layer(const Run& run, const Expected& e,
                              const Tracer& tr, double gen_s, double p50) {
  const Workload& w = *run.w;
  const double iters_per_cycle = static_cast<double>(w.steady_steps) * w.iters_per_step;
  const CycleStats* c0 = run.cycles.empty() ? nullptr : &run.cycles.front();
  metrics::Snapshot win = c0 ? c0->window : metrics::Snapshot{};
  auto per_iter = [&](const char* name) { return counter(win, name) / iters_per_cycle; };
  auto hit_ratio = [&](const char* hits, const char* misses) {
    double h = counter(win, hits);
    return ratio(h, h + counter(win, misses));
  };

  // Volatile exec figures: summed over every untraced cycle's window.
  double cpu = 0, leaf = 0, steals = 0, untraced_iters = 0;
  for (const CycleStats& c : run.cycles) {
    if (c.traced) continue;
    cpu += c.cpu_s;
    leaf += counter(c.window, "lsr_exec_task_wall_seconds");
    steals += counter(c.window, "lsr_exec_steals_total");
    untraced_iters += iters_per_cycle;
  }

  // Span self times, grouped by name: inside traced steady steps
  // (per iteration), inside probes (per call) and elsewhere (per occurrence).
  std::vector<int> steady_ids;
  for (const CycleStats& c : run.cycles) {
    if (c.traced) steady_ids.insert(steady_ids.end(), c.steady_step_ids.begin(), c.steady_step_ids.end());
  }
  const double traced_iters = static_cast<double>(steady_ids.size()) * w.iters_per_step;
  auto in_steady = [&](int step) {
    return std::find(steady_ids.begin(), steady_ids.end(), step) != steady_ids.end();
  };
  const auto& spans = tr.spans();
  std::vector<double> self = tr.self_times();
  auto step_self = [&](const char* name) {
    double sum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (in_steady(spans[i].step) && std::strcmp(spans[i].name, name) == 0) sum += self[i];
    }
    return ratio(sum, traced_iters);
  };
  auto parent_named = [&](std::size_t i, const char* name) {
    int p = spans[i].parent;
    return p >= 0 && std::strcmp(spans[static_cast<std::size_t>(p)].name, name) == 0;
  };
  auto median_self = [&](const char* name, const char* parent) {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].step < 0 && std::strcmp(spans[i].name, name) == 0 &&
          (parent ? parent_named(i, parent) : true)) {
        v.push_back(self[i]);
      }
    }
    return median(v);
  };
  double step_wall = 0, step_unattributed = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in_steady(spans[i].step) && std::strcmp(spans[i].name, "step") == 0) {
      step_wall += spans[i].end - spans[i].start;
      step_unattributed += self[i];
    }
  }
  double traced_p50 = median(concat_steady(run, true));
  const SpmvWork& work = e.work;

  return {
      {"apps.gen_s", gen_s, "s"},
      {"rt.ctor_s", median_self("rt.ctor", "setup"), "s"},
      {"rt.teardown_s", median_self("rt.teardown", nullptr), "s"},
      {"rt.fence_s", step_self("rt.fence"), "s/iter"},
      {"rt.launches_per_iter", per_iter("lsr_rt_launches_total"), "count/iter"},
      {"rt.partition_reuse_hit_ratio",
       hit_ratio("lsr_rt_partition_reuse_hits_total", "lsr_rt_partition_reuse_misses_total"),
       "ratio"},
      {"rt.image_cache_hit_ratio",
       hit_ratio("lsr_rt_image_cache_hits_total", "lsr_rt_image_cache_misses_total"), "ratio"},
      {"rt.alloc_fresh_per_iter", per_iter("lsr_rt_alloc_fresh_total"), "count/iter"},
      {"rt.fences_per_iter", per_iter("lsr_rt_fences_total"), "count/iter"},
      {"rt.overhead_ratio", ratio(p50, e.host_s_per_iter), "ratio"},
      {"sparse.from_host_s", median_self("sparse.from_host", "setup"), "s"},
      {"sparse.spmv_s", median_self("sparse.spmv", "probe"), "s"},
      {"sparse.step_spmv_s", step_self("sparse.spmv"), "s/iter"},
      {"sparse.spmv_flops_per_iter", work.flops, "flop/iter"},
      {"sparse.spmv_bytes_per_iter", work.bytes, "B/iter"},
      {"sparse.spmv_ops_per_byte", ratio(work.flops, work.bytes), "flop/B"},
      {"dense.dot_s", median_self("dense.dot", "probe"), "s"},
      {"dense.axpy_s", median_self("dense.axpy", "probe"), "s"},
      {"dense.step_vec_s", step_self("dense.fill") + step_self("dense.axpy"), "s/iter"},
      {"solve.gmg_build_s", median_self("solve.gmg_build", "setup"), "s"},
      {"solve.step_s", step_self("solve.cg"), "s/iter"},
      {"solve.iterations", c0 && w.kind != Kind::Spmv ? c0->solve_iterations : 0.0, "count"},
      {"fuse.launches_eliminated_per_iter", per_iter("lsr_fuse_launches_eliminated_total"),
       "count/iter"},
      {"fuse.windows_per_iter", per_iter("lsr_fuse_windows_scanned_total"), "count/iter"},
      {"comm.plan_hit_ratio",
       hit_ratio("lsr_comm_plan_hits_total", "lsr_comm_plan_misses_total"), "ratio"},
      {"comm.messages_per_iter", per_iter("lsr_comm_messages_total"), "count/iter"},
      {"comm.messages_saved_per_iter", per_iter("lsr_comm_messages_saved_total"),
       "count/iter"},
      {"comm.bytes_per_iter", per_iter("lsr_comm_bytes_total"), "B/iter"},
      {"sim.tasks_per_iter", per_iter("lsr_sim_tasks_total"), "count/iter"},
      {"sim.copies_per_iter", per_iter("lsr_sim_copies_total"), "count/iter"},
      {"sim.allreduces_per_iter", per_iter("lsr_sim_allreduces_total"), "count/iter"},
      {"sim.bytes_per_iter.intra", per_iter("lsr_sim_traffic_intra_bytes_total"), "B/iter"},
      {"sim.bytes_per_iter.nvlink", per_iter("lsr_sim_traffic_nvlink_bytes_total"), "B/iter"},
      {"sim.bytes_per_iter.ib", per_iter("lsr_sim_traffic_ib_bytes_total"), "B/iter"},
      {"exec.cpu_s_per_iter", ratio(cpu, untraced_iters), "s/iter"},
      {"exec.leaf_cpu_s_per_iter", ratio(leaf, untraced_iters), "s/iter"},
      {"exec.nonleaf_frac", cpu > 0 ? 1.0 - leaf / cpu : 0.0, "ratio"},
      {"exec.steals_per_iter", ratio(steals, untraced_iters), "count/iter"},
      {"ref.iter_host_s", e.host_s_per_iter, "s/iter"},
      {"obs.snapshot_s", median_self("obs.snapshot", nullptr), "s"},
      {"trace.overhead_frac", p50 > 0 ? traced_p50 / p50 - 1.0 : 0.0, "ratio"},
      {"trace.unattributed_frac", ratio(step_unattributed, step_wall), "ratio"},
  };
}

void print_json(bool correct, const Run& run, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--tiny] [--inject-wrong]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

struct Args {
  const Workload* w{nullptr};
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool tiny{false};
  bool inject_wrong{false};
  std::string out_dir{".bench_out"};
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        std::string n = value();
        for (const Workload& w : kWorkloads) {
          if (n == w.name) a.w = &w;
        }
        if (!a.w) usage(("unknown workload " + n).c_str());
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
        if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
      } else if (k == "--trace") {
        std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        a.trace = t == "1";
      } else if (k == "--out") {
        a.out_dir = value();
      } else if (k == "--tiny") {
        a.tiny = true;
      } else if (k == "--inject-wrong") {
        a.inject_wrong = true;
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!a.w) usage("--workload is required");
  return a;
}

/// The library reads LSR_* variables in several places (Runtime options,
/// sim::Engine's own LSR_DIAG read, diag::Options::from_env, the comm debug
/// trace), so RuntimeOptions alone cannot pin the measured configuration.
void refuse_lsr_environment() {
  bool any = false;
  for (char** e = environ; *e; ++e) {
    if (std::strncmp(*e, "LSR_", 4) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      any = true;
    }
  }
  if (any) std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  refuse_lsr_environment();
  const Workload& w = *args.w;
  std::printf("workload: %s (%s) seed=%llu seconds=%g trace=%d tiny=%d\n", w.name, w.why,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.tiny ? 1 : 0);

  Tracer tr;
  tr.enabled = args.trace;
  Inputs in;
  Expected e;
  double gen_s = 0;
  try {
    double g0 = now_s();
    {
      SpanGuard sp(tr, "apps.gen");
      in = generate(w, args.seed, args.tiny);
    }
    gen_s = now_s() - g0;
    tr.enabled = false;
    std::printf("inputs: rows=%lld cols=%lld nnz=%lld\n", static_cast<long long>(in.A.rows),
                static_cast<long long>(in.A.cols), static_cast<long long>(in.A.nnz()));
    double r0 = now_s();
    e = run_reference(w, in);
    std::printf("prepare: generate=%.4fs reference=%.4fs\n", gen_s, now_s() - r0);
  } catch (const std::exception& ex) {
    // Without inputs or an oracle there is nothing to measure or check.
    std::fprintf(stderr, "perfbench: preparing the inputs failed: %s\n", ex.what());
    return 1;
  }

  Run run;
  run.w = &w;
  run.inject_wrong = args.inject_wrong;
  // A host much slower than the nominal one gets fewer cycles, not an
  // unbounded run.
  const int cycles = std::max(kMinCycles, static_cast<int>(args.seconds / w.cycle_s + 0.5));
  const double deadline = now_s() + kDeadlineFactor * args.seconds;
  bool setup_broken = false;
  for (int done = 0; done < cycles; ++done) {
    if (done >= kMinCycles && now_s() > deadline) break;
    bool traced = args.trace && done % 2 == 1;
    try {
      run_cycle(run, in, e, tr, traced, args.seed);
    } catch (const std::exception& ex) {
      ++run.attempted;
      fail(run, std::string("setup or teardown threw: ") + ex.what());
      setup_broken = true;
      break;
    }
  }
  // Enough setup samples for a median: extra setups with no steps.
  int setups = 0;
  for (const CycleStats& c : run.cycles) setups += c.traced ? 0 : 1;
  for (int i = setups; !setup_broken && i < kMinSetups; ++i) {
    Instance s;
    double t0 = now_s();
    try {
      setup(s, w, in, tr);
    } catch (const std::exception& ex) {
      ++run.attempted;
      fail(run, std::string("setup threw: ") + ex.what());
      break;
    }
    run.setup_only.push_back(now_s() - t0);
    teardown(s);
  }

  std::vector<double> steady = concat_steady(run, false);
  double p50 = median(steady);
  Tail tail = tail_of(steady);
  std::vector<Metric> e2e = end_to_end(run, tail, p50);
  std::vector<Metric> layers = per_layer(run, e, tr, gen_s, p50);

  std::printf("samples: cycles=%zu steady_steps=%zu tail=p%d setups=%zu\n",
              run.cycles.size(), steady.size(), tail.percentile,
              run.setup_only.size() + static_cast<std::size_t>(setups));
  std::printf("oracle: baselines::ref, max|v - v_ref| <= %g max|v_ref| on %s\n", kOracleRtol,
              w.kind == Kind::Spmv ? "y and x" : "x, same relative bound on the residual");
  for (const Metric& m : e2e) std::printf("metric %s = %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (args.trace) {
    for (const Metric& m : layers) std::printf("metric %s = %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::filesystem::create_directories(args.out_dir);
    std::string path = args.out_dir + "/trace-" + w.name + "-seed" + std::to_string(args.seed) + ".json";
    tr.write(path);
    std::printf("trace: %zu spans written to %s\n", tr.spans().size(), path.c_str());
  }
  for (const std::string& p : run.problems) std::printf("problem: %s\n", p.c_str());

  bool correct = run.failed == 0 && run.problems.empty() && !run.cycles.empty();
  std::vector<Metric> out;
  for (const Metric& m : args.trace ? layers : e2e) {
    if (m.name != "ops_failed_frac") out.push_back(m);
  }
  std::fflush(stdout);
  print_json(correct, run, out);
  return 0;
}
