// Solver benchmark: two closed-loop request streams (one client, one
// request in flight) driven through the public app::SolveService API with
// the obs tracer off, plus a separate traced run that times the calls into
// each layer's public functions from this file.
//
//   solverbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   solverbench --self-test
//
// Workloads (why each exists):
//   sphere_warm  the paper's §7 17-shell sphere-in-cube elasticity problem,
//                2-rank member of app::scaled_series (22,400 unknowns), run
//                at p=4. Cycles of cold requests (fresh service: setup
//                through the whole cold path) and warm requests on the
//                latest one's cached hierarchy, where k=1 and k=8 requests
//                run the single-vector and the blocked paths of the same
//                kernels.
//   poisson_p1   jump-coefficient Poisson (33,759 unknowns, block size 1)
//                at p=1: no parx messages, no halo exchange, CSR only, and
//                parallelism from kernel threads. The single-process
//                baseline on which halo, comm and elasticity-format
//                changes must show no change.
//
// Right-hand sides come from the seed and are generated before timing.
// Every op is timed in CPU seconds of the whole process (process_cpu_s);
// the wall-clock medians are printed beside them.
// Every returned column is checked against an independently assembled
// serial matrix (||b - A x|| / ||b|| <= rtol) outside the timed window,
// and repeated solves of one right-hand side must agree bitwise. The last
// stdout line is one JSON object that solverbench/run.py reads.
#include <malloc.h>  // mallinfo2
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/service.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dla/dist_vec.h"
#include "fem/assembly.h"
#include "fem/scalar.h"
#include "partition/rcb.h"
#include "parx/runtime.h"

extern char** environ;

using namespace prom;

namespace {

using Clock = std::chrono::steady_clock;

constexpr real kRtol = 1e-4;  // the paper's first-solve tolerance
constexpr int kRhsCols = 8;   // seeded right-hand sides per workload
constexpr int kBlock = 8;     // width of the blocked requests

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// ---- workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  int ranks = 1;
  std::shared_ptr<const app::ModelProblem> problem;

  app::ServiceConfig config() const {
    app::ServiceConfig sc;
    sc.nranks = ranks;
    sc.mg = app::default_mg_options(problem->equation);
    return sc;
  }
  bool scalar() const {
    return problem->equation != app::EquationClass::kElasticity;
  }
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "sphere_warm") {
    w.ranks = 4;
    w.problem = std::make_shared<const app::ModelProblem>(
        app::make_sphere_problem(app::scaled_series(1)[0].params, 1.2));
  } else if (name == "poisson_p1") {
    w.ranks = 1;
    w.problem = std::make_shared<const app::ModelProblem>(
        app::make_poisson_het_problem(32, 1e3));
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (sphere_warm, poisson_p1)");
  }
  return w;
}

/// The serial matrix assembled here, independently of the service, that
/// every returned solution is checked against.
la::Csr assemble_oracle(const app::ModelProblem& p) {
  if (p.equation != app::EquationClass::kElasticity) {
    return fem::assemble_scalar_system(p.mesh, p.scalar_dofmap, p.coeffs)
        .stiffness;
  }
  fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
  return fem::assemble_linear_system(fe).stiffness;
}

la::MultiVec seeded_rhs(idx n, int k, std::uint64_t seed) {
  Rng rng(seed);
  la::MultiVec b(n, k);
  for (int j = 0; j < k; ++j) {
    for (real& v : b.col(j)) v = rng.next_real() - 0.5;
  }
  return b;
}

la::MultiVec columns(const la::MultiVec& src, int j0, int k) {
  la::MultiVec out(src.rows(), k);
  for (int j = 0; j < k; ++j) {
    std::copy(src.col(j0 + j).begin(), src.col(j0 + j).end(),
              out.col(j).begin());
  }
  return out;
}

real true_relres(const la::Csr& a, std::span<const real> b,
                 std::span<const real> x) {
  std::vector<real> ax(b.size());
  a.spmv(x, ax);
  real rr = 0, bb = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const real r = b[i] - ax[i];
    rr += r * r;
    bb += b[i] * b[i];
  }
  return bb > 0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- output and determinism checks -----------------------------------------

/// One solved column, identified by the right-hand side it answers.
struct Solved {
  int iterations = 0;
  std::uint64_t hash = 0;
};

/// Checks every op's columns and remembers each right-hand side's first
/// answer; a later answer for the same right-hand side must be bitwise
/// identical (the fixed-p determinism contract, which also makes column j
/// of a blocked request equal the single-vector solve of that column).
/// Ops recorded before the oracle is set are kept and checked when it is.
class Checker {
 public:
  explicit Checker(const la::Csr* oracle = nullptr) : oracle_(oracle) {}

  /// Sets the oracle and checks the ops recorded so far.
  void set_oracle(const la::Csr& oracle) {
    oracle_ = &oracle;
    for (const Pending& op : pending_) check(op.keys, op.b, op.resp);
    pending_.clear();
  }
  bool has_oracle() const { return oracle_ != nullptr; }

  /// `keys[j]` names the right-hand side of column j. Returns whether the
  /// op passed (true while it waits for the oracle); counts it either way.
  bool record(const std::vector<std::string>& keys, const la::MultiVec& b,
              const app::SolveResponse& resp) {
    if (oracle_ == nullptr) {
      pending_.push_back({keys, b, resp});
      return true;
    }
    return check(keys, b, resp);
  }

  void record_error(const char* what) {
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "solverbench: op threw: %s\n", what);
  }

  int attempted() const { return attempted_ + static_cast<int>(pending_.size()); }
  int failed() const { return failed_; }
  bool deterministic() const { return deterministic_; }
  real max_relres() const { return max_relres_; }
  const std::map<std::string, Solved>& solved() const { return solved_; }

  /// Hash over every recorded right-hand side's answer, in key order.
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [key, s] : solved_) {
      h = fnv1a(h, key.data(), key.size());
      h = fnv1a(h, &s.iterations, sizeof(s.iterations));
      h = fnv1a(h, &s.hash, sizeof(s.hash));
    }
    return h;
  }

 private:
  struct Pending {
    std::vector<std::string> keys;
    la::MultiVec b;
    app::SolveResponse resp;
  };

  bool check(const std::vector<std::string>& keys, const la::MultiVec& b,
             const app::SolveResponse& resp) {
    ++attempted_;
    bool ok = static_cast<int>(resp.results.size()) == b.cols() &&
              resp.solutions.cols() == b.cols() &&
              resp.solutions.rows() == b.rows();
    for (int j = 0; ok && j < b.cols(); ++j) {
      const la::KrylovResult& kr = resp.results[static_cast<std::size_t>(j)];
      const real rel = true_relres(*oracle_, b.col(j), resp.solutions.col(j));
      if (!kr.converged || !(rel <= kRtol)) {
        std::fprintf(stderr,
                     "solverbench: %s failed: converged=%d iterations=%d "
                     "relres=%.6e (rtol %.1e)\n",
                     keys[static_cast<std::size_t>(j)].c_str(), kr.converged,
                     kr.iterations, rel, kRtol);
        ok = false;
        break;
      }
      max_relres_ = std::max(max_relres_, rel);
      const std::span<const real> x = resp.solutions.col(j);
      const Solved s{kr.iterations,
                     fnv1a(0xcbf29ce484222325ULL, x.data(),
                           x.size() * sizeof(real))};
      const auto [it, fresh] =
          solved_.emplace(keys[static_cast<std::size_t>(j)], s);
      if (!fresh && (it->second.hash != s.hash ||
                     it->second.iterations != s.iterations)) {
        std::fprintf(stderr,
                     "solverbench: %s answered differently on a repeat "
                     "(iterations %d vs %d)\n",
                     it->first.c_str(), it->second.iterations, s.iterations);
        deterministic_ = false;
      }
    }
    if (!ok) ++failed_;
    return ok;
  }

  const la::Csr* oracle_;
  std::vector<Pending> pending_;
  std::map<std::string, Solved> solved_;
  int attempted_ = 0;
  int failed_ = 0;
  bool deterministic_ = true;
  real max_relres_ = 0;
};

std::string col_key(int j) { return "rhs" + std::to_string(j); }

// ---- end-to-end run --------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;             // median of `samples`
  std::vector<double> samples;  // as measured, in the order taken
  double wall_median = 0;       // the same ops' wall-clock median, shown only
};

/// CPU seconds of every thread of the process so far. The kernel leaves
/// out the time a vCPU was stolen by the host, and threads blocked on a
/// peer or on the kernel pool take none, so this moves far less than wall
/// time with a shared host's load; it still follows the cores' speed.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU seconds of one timed span.
struct Span {
  double wall = 0;
  double cpu = 0;
};

class SpanTimer {
 public:
  SpanTimer() : wall0_(Clock::now()), cpu0_(process_cpu_s()) {}
  Span elapsed() const { return {since(wall0_), process_cpu_s() - cpu0_}; }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// Per-op samples of the ops that passed their check.
struct Samples {
  std::vector<Span> setup, cold_request, solve, block;
};

app::SolveRequest request(const std::string& mesh_id, la::MultiVec rhs) {
  app::SolveRequest req;
  req.mesh_id = mesh_id;
  req.rhs = std::move(rhs);
  req.rtol = kRtol;
  req.return_solutions = true;
  return req;
}

/// One cold op: a fresh service, the setup miss, then one k=1 request.
/// Returns the service so warm requests can follow on its cached entry.
std::unique_ptr<app::SolveService> cold_op(const Workload& w,
                                           const la::MultiVec& b,
                                           const std::string& key,
                                           Checker& check, Samples& s) {
  auto service = std::make_unique<app::SolveService>(w.config());
  service->register_problem(w.name, w.problem);
  try {
    const SpanTimer timer;
    const app::EntryHandle entry = service->acquire(w.name);
    const Span setup = timer.elapsed();
    const app::SolveResponse resp =
        service->solve_with(entry, request(w.name, b));
    const Span total = timer.elapsed();
    if (check.record({key}, b, resp)) {
      s.setup.push_back(setup);
      s.cold_request.push_back(total);
    }
  } catch (const Error& e) {
    check.record_error(e.what());
  }
  return service;
}

enum class Op { kCold, kWarm1, kWarm8 };

/// A warm request of width 1 (column `j`) or kBlock (all columns).
void warm_op(const Workload& w, app::SolveService& service,
             const la::MultiVec& rhs, Op op, int j, Checker& check,
             Samples& s) {
  const int k = op == Op::kWarm8 ? kBlock : 1;
  const int j0 = op == Op::kWarm8 ? 0 : j;
  const la::MultiVec b = columns(rhs, j0, k);
  std::vector<std::string> keys;
  for (int c = 0; c < k; ++c) keys.push_back(col_key(j0 + c));
  try {
    const SpanTimer timer;
    const app::SolveResponse resp = service.solve(request(w.name, b));
    const Span span = timer.elapsed();
    PROM_CHECK_MSG(resp.cache_hit, "warm request missed the service cache");
    if (check.record(keys, b, resp)) {
      (k == 1 ? s.solve : s.block).push_back(span);
    }
  } catch (const Error& e) {
    check.record_error(e.what());
  }
}

/// The op cycle each workload repeats until the time is up (and at least
/// once, so every metric has a sample). A cold op replaces the service;
/// warm ops run on the entry of the latest cold op.
std::vector<Op> schedule(const std::string& name) {
  if (name == "sphere_warm") {
    return {Op::kCold, Op::kWarm1, Op::kWarm8, Op::kWarm1,
            Op::kCold, Op::kWarm1, Op::kWarm1};
  }
  return {Op::kCold,  Op::kWarm1, Op::kWarm1, Op::kWarm1, Op::kWarm1,
          Op::kWarm1, Op::kWarm1, Op::kWarm1, Op::kWarm8, Op::kWarm8};
}

idx unknowns(const app::ModelProblem& p) {
  return p.equation == app::EquationClass::kElasticity
             ? p.dofmap.num_free()
             : p.scalar_dofmap.num_free();
}

struct RunResult {
  std::vector<Metric> metrics;
  int attempted = 0;
  int failed = 0;
  bool deterministic = true;
  std::uint64_t digest = 0;
  std::vector<std::pair<std::string, int>> iterations;
  real max_relres = 0;
};

/// Runs the workload's schedule for `seconds` of wall time, the cold
/// requests included.
RunResult run_end_to_end(const Workload& w, std::uint64_t seed,
                         double seconds) {
  const la::MultiVec rhs = seeded_rhs(unknowns(*w.problem), kRhsCols, seed);
  // The oracle is assembled only after the memory reading, so the reading
  // holds the program's memory alone; ops before it are checked then.
  la::Csr oracle;
  Checker check;
  Samples s;
  std::unique_ptr<app::SolveService> service;
  int next_col = 0;  // cold and warm k=1 requests take the columns in turn
  double rss_mb = 0;

  // After the first whole cycle, an op starts only if it is expected (from
  // the last op of its kind) to end within the measured seconds.
  const std::vector<Op> ops = schedule(w.name);
  std::map<Op, double> last_s;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const Op op = ops[i % ops.size()];
    if (i >= ops.size() && since(start) + last_s[op] > seconds) break;
    const Clock::time_point op_start = Clock::now();
    if (op == Op::kCold) {
      service.reset();  // free the previous entry outside the timed window
      service = cold_op(w, columns(rhs, next_col, 1), col_key(next_col),
                        check, s);
    } else {
      warm_op(w, *service, rhs, op, next_col, check, s);
    }
    if (op != Op::kWarm8) next_col = (next_col + 1) % kRhsCols;
    last_s[op] = since(op_start);
    if (op == Op::kWarm8 && !check.has_oracle()) {
      // Peak resident memory through a cold request and a warm request of
      // each width: problem, one setup, the single-vector and the blocked
      // solve paths. Later fresh services add a share that varies from run
      // to run with where the allocator places their buffers.
      rss_mb = peak_rss_mb();
      oracle = assemble_oracle(*w.problem);
      check.set_oracle(oracle);
    }
  }
  PROM_CHECK_MSG(check.has_oracle(), "schedule ran no k=8 request");

  RunResult r;
  // Every time is the CPU seconds of the op (see process_cpu_s); the
  // block rate is right-hand sides per CPU second of a k=8 request.
  const auto add = [&](const char* name, const char* unit,
                       const std::vector<Span>& spans, bool rate) {
    Metric m{name, unit, 0, {}, 0};
    std::vector<double> wall;
    for (const Span& sp : spans) {
      m.samples.push_back(rate ? kBlock / sp.cpu : sp.cpu);
      wall.push_back(rate ? kBlock / sp.wall : sp.wall);
    }
    m.value = median(m.samples);
    m.wall_median = median(wall);
    r.metrics.push_back(std::move(m));
  };
  add("setup_s", "s", s.setup, false);
  add("cold_request_cpu_s", "s", s.cold_request, false);
  add("solve_cpu_s", "s", s.solve, false);
  add("block_solves_per_cpu_s", "solves/cpu-s", s.block, true);
  r.metrics.push_back({"peak_rss_mb", "MB", rss_mb, {rss_mb}, rss_mb});
  r.attempted = check.attempted();
  r.failed = check.failed();
  r.deterministic = check.deterministic();
  r.digest = check.digest();
  for (const auto& [key, sv] : check.solved()) {
    r.iterations.emplace_back(key, sv.iterations);
  }
  r.max_relres = check.max_relres();
  return r;
}

// ---- traced run: per-layer metrics -----------------------------------------

/// Runs `fn` on every rank between barriers and returns the slowest
/// rank's seconds per repetition.
double collective_seconds(parx::Comm& comm, int reps,
                          const std::function<void()>& fn) {
  comm.barrier();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const double mine = since(t0) / reps;
  comm.barrier();
  return comm.allreduce_max(mine);
}

/// Median over `trials` of collective_seconds (the same on every rank).
double median_collective(parx::Comm& comm, int trials, int reps,
                         const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < trials; ++i) {
    t.push_back(collective_seconds(comm, reps, fn));
  }
  return median(t);
}

/// The options SolveService::solve_with passes to the Krylov driver.
mg::MgSolveOptions solve_options(const Workload& w) {
  mg::MgSolveOptions so;
  so.rtol = kRtol;
  so.cycle = w.config().cycle;
  so.format = w.config().format;
  so.krylov = app::default_krylov(w.problem->equation);
  return so;
}

/// Computed (not measured) bytes one SpMV with `a` moves: values and
/// column indices, row pointers, the input vector and the output, once.
double spmv_bytes(const la::Csr& a) {
  return static_cast<double>(a.nnz()) * (sizeof(real) + sizeof(idx)) +
         (a.nrows + 1.0) * sizeof(nnz_t) +
         static_cast<double>(a.ncols + a.nrows) * sizeof(real);
}

struct SetupLayers {
  double rcb_s = 0, assemble_s = 0, grids_s = 0, dist_s = 0;
  double total_s = 0;  // the whole traced cold path, k=1 solve included
  double imbalance = 0, nnz = 0, flops = 0, msgs = 0, bytes = 0, heap_mb = 0;
};

/// The cold path of SolveService::build_entry rebuilt from the layers'
/// public calls, each timed, followed by one k=1 solve of `b`.
SetupLayers traced_cold_path(const Workload& w, const la::MultiVec& b) {
  const app::ModelProblem& p = *w.problem;
  const app::ServiceConfig sc = w.config();
  SetupLayers L;
  const Clock::time_point t_all = Clock::now();

  Clock::time_point t0 = Clock::now();
  const std::vector<idx> owner =
      partition::rcb_partition(p.mesh.coords(), w.ranks);
  L.rcb_s = since(t0);
  const std::vector<idx> sizes = partition::part_sizes(owner, w.ranks);
  L.imbalance = static_cast<double>(*std::max_element(sizes.begin(),
                                                      sizes.end())) *
                w.ranks / static_cast<double>(owner.size());

  t0 = Clock::now();
  la::Csr a;
  if (w.scalar()) {
    a = fem::assemble_scalar_system(p.mesh, p.scalar_dofmap, p.coeffs)
            .stiffness;
  } else {
    fem::FeProblem fe(p.mesh, p.materials, p.dofmap);
    a = fem::assemble_linear_system(fe).stiffness;
  }
  L.assemble_s = since(t0);
  L.nnz = static_cast<double>(a.nnz());

  t0 = Clock::now();
  const mg::Hierarchy grids =
      w.scalar()
          ? mg::Hierarchy::build_grids_scalar(p.mesh, p.scalar_dofmap,
                                              std::move(a), sc.mg)
          : mg::Hierarchy::build_grids(p.mesh, p.dofmap, std::move(a), sc.mg);
  L.grids_s = since(t0);

  std::vector<dla::DistHierarchy> dist(static_cast<std::size_t>(w.ranks));
  const double heap0 = heap_in_use_mb();
  std::vector<double> build_s(static_cast<std::size_t>(w.ranks));
  std::vector<std::int64_t> flops(static_cast<std::size_t>(w.ranks));
  const std::vector<parx::TrafficStats> traffic =
      parx::Runtime::run(w.ranks, [&](parx::Comm& comm) {
        comm.barrier();
        const Clock::time_point tb = Clock::now();
        dist[comm.rank()] =
            dla::DistHierarchy::build(comm, grids, owner, sc.format);
        build_s[comm.rank()] = since(tb);
        flops[comm.rank()] = dist[comm.rank()].galerkin_flops();
      });
  L.heap_mb = heap_in_use_mb() - heap0;
  L.dist_s = *std::max_element(build_s.begin(), build_s.end());
  L.flops = static_cast<double>(*std::max_element(flops.begin(), flops.end()));
  for (const parx::TrafficStats& t : traffic) {
    L.msgs += static_cast<double>(t.messages_sent);
    L.bytes += static_cast<double>(t.bytes_sent);
  }

  const mg::MgSolveOptions so = solve_options(w);
  std::vector<la::KrylovWorkspace> ws(static_cast<std::size_t>(w.ranks));
  parx::Runtime::run(w.ranks, [&](parx::Comm& comm) {
    const dla::DistHierarchy& h = dist[comm.rank()];
    const std::vector<idx>& perm = h.permutation(0);
    const dla::RowDist& rows = h.level(0).a.row_dist();
    const idx b0 = rows.begin(comm.rank());
    la::MultiVec bl(rows.local_size(comm.rank()), 1), xl(bl.rows(), 1);
    for (idx i = 0; i < bl.rows(); ++i) bl.col(0)[i] = b.col(0)[perm[b0 + i]];
    dla::dist_mg_pcg_solve_mv(comm, h, bl, xl, so, &ws[comm.rank()]);
  });
  L.total_s = since(t_all);
  return L;
}

/// Per-layer metrics by name; `attempted` receives the number of checked
/// requests.
std::map<std::string, double> run_traced(const Workload& w, std::uint64_t seed,
                                         double seconds, int& attempted) {
  const la::Csr oracle = assemble_oracle(*w.problem);
  const la::MultiVec rhs = seeded_rhs(oracle.nrows, kRhsCols, seed);
  const la::MultiVec b1 = columns(rhs, 0, 1);
  const la::MultiVec b8 = columns(rhs, 0, kBlock);
  std::map<std::string, double> m;

  // Alternate untraced cold requests through the service (tracer off, no
  // layer timers: the denominators of coverage and overhead) with the
  // traced cold path, at least three times and while the next pair is
  // expected to end within half of the seconds; the solve-phase layers
  // below take the rest.
  Checker check(&oracle);
  Samples ref;
  std::unique_ptr<app::SolveService> service;
  std::vector<SetupLayers> reps;
  const Clock::time_point start = Clock::now();
  double pair_s = 0;
  while (reps.size() < 3 || since(start) + pair_s < 0.5 * seconds) {
    const Clock::time_point t0 = Clock::now();
    service.reset();
    service = cold_op(w, b1, "rhs0", check, ref);
    reps.push_back(traced_cold_path(w, b1));
    pair_s = since(t0);
  }
  PROM_CHECK_MSG(check.failed() == 0, "reference cold requests failed");
  std::vector<double> ref_setup_s, ref_cold_s;
  for (const Span& sp : ref.setup) ref_setup_s.push_back(sp.wall);
  for (const Span& sp : ref.cold_request) ref_cold_s.push_back(sp.wall);
  const double ref_setup = median(ref_setup_s);
  const double ref_cold = median(ref_cold_s);
  const auto med = [&](double SetupLayers::*f) {
    std::vector<double> v;
    for (const SetupLayers& r : reps) v.push_back(r.*f);
    return median(v);
  };
  m["partition.rcb_s"] = med(&SetupLayers::rcb_s);
  m["partition.imbalance"] = reps[0].imbalance;
  m["fem.assemble_s"] = med(&SetupLayers::assemble_s);
  m["fem.nnz"] = reps[0].nnz;
  m["mg.build_grids_s"] = med(&SetupLayers::grids_s);
  m["dla.setup_s"] = med(&SetupLayers::dist_s);
  m["dla.setup_flops"] = reps[0].flops;
  m["dla.setup_msgs"] = reps[0].msgs;
  m["dla.setup_bytes"] = reps[0].bytes;
  m["dla.hierarchy_heap_mb"] = reps[0].heap_mb;
  m["trace.setup_coverage"] =
      (m["partition.rcb_s"] + m["fem.assemble_s"] + m["mg.build_grids_s"] +
       m["dla.setup_s"]) /
      ref_setup;
  m["trace.overhead"] = med(&SetupLayers::total_s) / ref_cold;

  // Service layer on the cached entry of the last reference service.
  std::vector<double> hit_s;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t0 = Clock::now();
    service->acquire(w.name);
    hit_s.push_back(since(t0));
  }
  m["app.acquire_hit_s"] = median(hit_s);
  const app::EntryHandle entry = service->acquire(w.name);
  const int nl = entry->per_rank[0].num_levels();
  const mg::MgSolveOptions so = solve_options(w);

  // One bare k=1 PCG solve of `b1` on the entry's ranks, with the entry's
  // Krylov work vectors as SolveService::solve_with passes them: its time,
  // and its iterations and parx traffic through the out-parameters.
  int iters = 0;
  double msgs = 0, bytes = 0;
  const auto pcg_seconds = [&] {
    double t = 0;
    parx::Runtime::run(w.ranks, [&](parx::Comm& comm) {
      const dla::DistHierarchy& h = entry->per_rank[comm.rank()];
      const std::vector<idx>& perm = h.permutation(0);
      const idx b0 = h.level(0).a.row_dist().begin(comm.rank());
      la::MultiVec bl(h.level(0).local_n(), 1), xl(bl.rows(), 1);
      for (idx i = 0; i < bl.rows(); ++i) bl.col(0)[i] = b1.col(0)[perm[b0 + i]];
      std::vector<la::KrylovResult> kr;
      parx::TrafficStats before{}, after{};
      const double ts = collective_seconds(comm, 1, [&] {
        before = comm.traffic();
        kr = dla::dist_mg_pcg_solve_mv(comm, h, bl, xl, so,
                                       &entry->workspaces[comm.rank()]);
        after = comm.traffic();
      });
      const double m_sum = comm.allreduce_sum(static_cast<double>(
          after.messages_sent - before.messages_sent));
      const double b_sum = comm.allreduce_sum(
          static_cast<double>(after.bytes_sent - before.bytes_sent));
      if (comm.rank() == 0) {
        t = ts;
        iters = kr[0].iterations;
        msgs = m_sum;
        bytes = b_sum;
      }
    });
    return t;
  };

  // Warm requests alternate with bare PCG solves of the same right-hand
  // side, so both see the same machine state.
  const std::int64_t hits0 = service->cache_hits();
  const std::int64_t misses0 = service->cache_misses();
  std::vector<double> solve_with_s, pcg_s;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const app::SolveResponse resp =
        service->solve(request(w.name, la::MultiVec(b1)));
    solve_with_s.push_back(since(t0));
    check.record({"rhs0"}, b1, resp);
    pcg_s.push_back(pcg_seconds());
  }
  m["app.solve_with_s"] = median(solve_with_s);
  m["mg.pcg_s"] = median(pcg_s);
  m["mg.iterations"] = iters;
  m["mg.s_per_iteration"] = m["mg.pcg_s"] / std::max(1, iters);
  m["parx.msgs_per_iter"] = msgs / std::max(1, iters);
  m["parx.bytes_per_iter"] = bytes / std::max(1, iters);
  // Over the warm requests alone: 1 unless the cache stops serving them.
  const std::int64_t hits = service->cache_hits() - hits0;
  const std::int64_t misses = service->cache_misses() - misses0;
  m["app.cache_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(hits + misses);

  // Solve-phase layers on the same entry, called directly per rank.
  const int p = w.ranks;
  std::vector<double> nnz_level(static_cast<std::size_t>(nl), 0);
  double coarsest_rows = 0, ws_bytes = 0;
  for (int r = 0; r < p; ++r) {
    const dla::DistHierarchy& h = entry->per_rank[static_cast<std::size_t>(r)];
    for (int l = 0; l < nl; ++l) {
      nnz_level[static_cast<std::size_t>(l)] +=
          static_cast<double>(h.level(l).a.local_matrix().nnz());
    }
    coarsest_rows += h.level(nl - 1).local_n();
    ws_bytes += spmv_bytes(h.level(0).a.local_matrix());
  }
  double total_nnz = 0;
  for (double v : nnz_level) total_nnz += v;
  m["mg.levels"] = nl;
  m["mg.coarsest_rows"] = coarsest_rows;
  m["mg.operator_complexity"] = total_nnz / nnz_level[0];
  m["la.working_set_mb"] = ws_bytes / (1024.0 * 1024.0);

  std::map<std::string, double> ranked;  // written by rank 0
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const int rank = comm.rank();
    const dla::DistHierarchy& h = entry->per_rank[static_cast<std::size_t>(rank)];
    const dla::DistMgLevel& l0 = h.level(0);
    const std::vector<idx>& perm = h.permutation(0);
    const idx nloc = l0.local_n();
    const idx b0 = l0.a.row_dist().begin(rank);
    la::MultiVec bl(nloc, kBlock), xl(nloc, kBlock);
    for (int j = 0; j < kBlock; ++j) {
      for (idx i = 0; i < nloc; ++i) bl.col(j)[i] = b8.col(j)[perm[b0 + i]];
    }
    const la::MultiVec bl1 = columns(bl, 0, 1);
    la::MultiVec xl1(nloc, 1);
    std::map<std::string, double> out;

    // What solve_with adds around the Krylov solve of a k=1 request:
    // scatter of the right-hand side into the rank's rows, gather of the
    // solution to every rank, and rank 0's copy into the serial numbering.
    // Timed directly: solve_with_s minus pcg_s is smaller than the noise
    // between two solves.
    const dla::RowDist& rows = l0.a.row_dist();
    la::MultiVec full(b1.rows(), 1);
    out["app.scatter_gather_s"] = median_collective(comm, 5, 5, [&] {
      for (idx i = 0; i < nloc; ++i) xl1.col(0)[i] = b1.col(0)[perm[b0 + i]];
      const la::MultiVec x_full = dla::dist_gather_all_mv(comm, rows, xl1);
      if (rank == 0) {
        for (idx g = 0; g < x_full.rows(); ++g) {
          full.col(0)[perm[g]] = x_full.col(0)[g];
        }
      }
    });

    // Preconditioner: one cycle at k=1 and at k=8.
    const dla::DistMgPreconditioner prec(h, so.cycle);
    out["mg.precond_s"] = median_collective(comm, 5, 2, [&] {
      prec.apply(comm, bl1.col(0), xl1.col(0));
    });
    out["mg.precond_k8_s"] = median_collective(comm, 3, 1, [&] {
      prec.apply_mv(comm, bl, xl);
    });

    // Per-level cycle components.
    std::vector<std::vector<real>> vb(static_cast<std::size_t>(nl)),
        vx(static_cast<std::size_t>(nl));
    for (int l = 0; l < nl; ++l) {
      vb[l].assign(static_cast<std::size_t>(h.level(l).local_n()), 1.0);
      vx[l].assign(static_cast<std::size_t>(h.level(l).local_n()), 0.0);
    }
    // Smoothing on levels 0-1 and transfers into levels 1-2: the parts
    // every workload's hierarchy (three levels or more) has, so each name
    // is measured everywhere. A hierarchy with fewer levels reports 0.
    for (int l = 0; l < 3; ++l) {
      const std::string lv = "mg.L" + std::to_string(l);
      if (l < 2) {
        out[lv + ".smooth_s"] =
            l < nl - 1 ? median_collective(comm, 5, 3, [&] {
              h.level(l).smooth(comm, vb[l], vx[l]);
            })
                       : 0.0;
      }
      if (l == 0) continue;
      const bool has_r = l < nl;
      out[lv + ".restrict_s"] =
          has_r ? median_collective(comm, 5, 5, [&] {
            h.level(l).r.spmv(comm, vb[l - 1], vx[l]);
          })
                : 0.0;
      out[lv + ".prolong_s"] =
          has_r ? median_collective(comm, 5, 5, [&] {
            h.level(l).r.spmv_transpose(comm, vb[l], vx[l - 1]);
          })
                : 0.0;
    }
    const dla::DistMgLevel& lc = h.level(nl - 1);
    out["mg.coarse_solve_s"] =
        lc.direct == nullptr && lc.direct_lu == nullptr
            ? 0.0
            : median_collective(comm, 5, 5, [&] {
                const std::vector<real> full =
                    dla::dist_gather_all(comm, lc.a.row_dist(), vb[nl - 1]);
                std::vector<real> xf(full.size());
                if (lc.direct != nullptr) {
                  lc.direct->solve(full, xf);
                } else {
                  lc.direct_lu->solve(full, xf);
                }
              });

    // Distributed level-0 operator: SpMV, SpMM at k=8, and the bare halo.
    out["dla.spmv_s"] = median_collective(comm, 5, 10, [&] {
      l0.a.spmv(comm, bl1.col(0), xl1.col(0));
    });
    out["dla.spmm8_s"] = median_collective(comm, 5, 3, [&] {
      l0.a.spmm(comm, bl, xl);
    });
    const la::Csr& lm = l0.a.local_matrix();
    std::vector<real> x_ext(static_cast<std::size_t>(lm.ncols), 1.0);
    std::vector<real> y(static_cast<std::size_t>(lm.nrows));
    const parx::TrafficStats before = comm.traffic();
    l0.a.halo_plan().post(comm, bl1.col(0));
    l0.a.halo_plan().finish(comm, x_ext);
    const parx::TrafficStats after = comm.traffic();
    out["dla.halo_msgs"] = comm.allreduce_sum(
        static_cast<double>(after.messages_sent - before.messages_sent));
    out["dla.halo_bytes"] = comm.allreduce_sum(
        static_cast<double>(after.bytes_sent - before.bytes_sent));
    out["dla.halo_s"] = median_collective(comm, 5, 20, [&] {
      l0.a.halo_plan().post(comm, bl1.col(0));
      l0.a.halo_plan().finish(comm, x_ext);
    });

    // Local kernel with no communication, and the host ceiling: a triad
    // over arrays holding as many bytes as this rank's SpMV touches, run
    // on the same ranks and kernel threads.
    out["la.spmv_s"] = median_collective(comm, 5, 20, [&] {
      lm.spmv(x_ext, y);
    });
    const idx tn = static_cast<idx>(spmv_bytes(lm) / (3 * sizeof(real)));
    std::vector<real> ta(static_cast<std::size_t>(tn)),
        tb(static_cast<std::size_t>(tn), 1.0),
        tc(static_cast<std::size_t>(tn), 2.0);
    const double triad_s = median_collective(comm, 5, 20, [&] {
      common::parallel_for(0, tn, 4096, [&](idx i0, idx i1) {
        for (idx i = i0; i < i1; ++i) ta[i] = tb[i] + 0.5 * tc[i];
      });
    });
    const double triad_bytes =
        comm.allreduce_sum(3.0 * sizeof(real) * static_cast<double>(tn));
    out["la.triad_gbs"] = triad_bytes / triad_s / 1e9;

    // Collectives the Krylov loop runs every iteration.
    out["parx.allreduce_s"] = median_collective(comm, 5, 200, [&] {
      comm.allreduce_sum(1.0);
    });
    out["parx.barrier_s"] = median_collective(comm, 5, 200, [&] {
      comm.barrier();
    });
    if (rank == 0) ranked = std::move(out);
  });
  for (auto& [k, v] : ranked) m[k] = v;
  m["la.spmv_gbs"] = ws_bytes / m["la.spmv_s"] / 1e9;
  m["la.spmv_ceiling_frac"] = m["la.spmv_gbs"] / m["la.triad_gbs"];
  PROM_CHECK_MSG(check.failed() == 0 && check.deterministic(),
                 "traced run: a solve failed its output check");
  attempted = check.attempted();
  return m;
}

// ---- self-test --------------------------------------------------------------

/// The output check must count a corrupted solution as failed and an
/// untouched one as passed.
bool self_test() {
  Workload w;
  w.name = "box";
  w.ranks = 2;
  w.problem =
      std::make_shared<const app::ModelProblem>(app::make_box_problem(5));
  const la::Csr oracle = assemble_oracle(*w.problem);
  const la::MultiVec b = seeded_rhs(oracle.nrows, 1, 99);
  app::SolveService service(w.config());
  service.register_problem(w.name, w.problem);
  app::SolveResponse resp = service.solve(request(w.name, b));
  Checker check(&oracle);
  const bool clean = check.record({"rhs0"}, b, resp);
  resp.solutions.col(0)[resp.solutions.rows() / 2] += 1.0;
  const bool corrupt = check.record({"rhs0_corrupt"}, b, resp);
  const bool ok = clean && !corrupt && check.attempted() == 2 &&
                  check.failed() == 1;
  std::fprintf(stderr, "solverbench: self-test %s (clean %s, corrupted %s)\n",
               ok ? "passed" : "FAILED", clean ? "passed" : "failed",
               corrupt ? "passed" : "failed");
  return ok;
}

// ---- main -------------------------------------------------------------------

/// Every number must measure the shipped defaults: refuse any PROM_* knob.
bool config_guard() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PROM_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      std::fprintf(stderr,
                   "solverbench: config guard: %.*s is set; the benchmark "
                   "measures the default configuration only, unset it\n",
                   eq ? static_cast<int>(eq - *e) : static_cast<int>(
                                                        std::strlen(*e)),
                   *e);
      clean = false;
    }
  }
  return clean;
}

int kernel_threads_per_rank(int ranks) {
  int threads = 0;
  parx::Runtime::run(ranks, [&](parx::Comm& comm) {
    if (comm.rank() == 0) threads = common::kernel_threads();
  });
  return threads;
}

void print_config(const Workload& w, std::uint64_t seed, double seconds,
                  bool trace) {
  std::printf("config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
              "%g, \"trace\": %d, \"ranks\": %d, \"kernel_threads_per_rank\":"
              " %d, \"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": "
              "\"%s\", \"cxx_flags\": \"%s\"}\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, w.ranks, kernel_threads_per_rank(w.ranks),
              sysconf(_SC_NPROCESSORS_ONLN), SOLVERBENCH_BUILD_TYPE,
              SOLVERBENCH_COMPILER, SOLVERBENCH_CXX_FLAGS);
}

/// The result line's metrics, name -> value (run.py adds the units from
/// BENCHMARK.json).
void print_json_metrics(const std::vector<std::pair<std::string, double>>& m) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "", m[i].first.c_str(),
                m[i].second);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: solverbench --workload <sphere_warm|poisson_p1> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       solverbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool only_self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      only_self_test = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else {
      return usage();
    }
  }
  if (!config_guard()) return 2;
  try {
    if (only_self_test) return self_test() ? 0 : 1;
    if (workload.empty() || !(seconds > 0)) return usage();
    const Workload w = make_workload(workload);
    print_config(w, seed, seconds, trace);
    const bool self_ok = self_test();

    if (trace) {
      int attempted = 0;
      const std::map<std::string, double> m =
          run_traced(w, seed, seconds, attempted);
      for (const auto& [name, v] : m) {
        std::printf("layer %-26s %.6g\n", name.c_str(), v);
      }
      const double cov = m.at("trace.setup_coverage");
      if (cov < 0.9 || cov > 1.1) {
        std::printf("FLAG trace.setup_coverage %.3f is outside [0.9, 1.1]: "
                    "the cold path no longer runs through the timed layer "
                    "calls\n",
                    cov);
      }
      std::printf("ceiling: triad over %.2f MiB (the level-0 SpMV working "
                  "set) against an L3 of %.0f MiB: a cache-resident ceiling;"
                  " a DRAM triad would need >= 4x L3 per array set\n",
                  m.at("la.working_set_mb"),
                  sysconf(_SC_LEVEL3_CACHE_SIZE) / (1024.0 * 1024.0));
      std::printf("result {\"correct\": %s, \"attempted\": %d, \"failed\":"
                  " 0, ",
                  self_ok ? "true" : "false", attempted);
      print_json_metrics({m.begin(), m.end()});
      return 0;
    }

    const RunResult r = run_end_to_end(w, seed, seconds);
    for (const Metric& mt : r.metrics) {
      std::printf("metric %-22s %-12s %.6g (wall-clock median %.6g) over "
                  "%zu samples:",
                  mt.name.c_str(), mt.unit.c_str(), mt.value, mt.wall_median,
                  mt.samples.size());
      for (double v : mt.samples) std::printf(" %.4g", v);
      std::printf("\n");
    }
    std::printf("ops attempted %d failed %d; max true relres %.3e\n",
                r.attempted, r.failed, r.max_relres);
    std::printf("iterations");
    for (const auto& [key, it] : r.iterations) {
      std::printf(" %s=%d", key.c_str(), it);
    }
    std::printf("\nsolution hash %016llx\n",
                static_cast<unsigned long long>(r.digest));
    const bool all_sampled = std::all_of(
        r.metrics.begin(), r.metrics.end(),
        [](const Metric& mt) { return !mt.samples.empty() && mt.value > 0; });
    std::printf("result {\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"deterministic\": %s, \"hash\": \"%016llx\", ",
                self_ok && all_sampled && r.failed == 0 && r.deterministic
                    ? "true"
                    : "false",
                r.attempted, r.failed, r.deterministic ? "true" : "false",
                static_cast<unsigned long long>(r.digest));
    std::vector<std::pair<std::string, double>> values;
    for (const Metric& mt : r.metrics) values.emplace_back(mt.name, mt.value);
    print_json_metrics(values);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solverbench: error: %s\n", e.what());
    return 1;
  }
}
