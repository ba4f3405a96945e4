#include "msc/kernels/verified.hpp"

#include <algorithm>
#include <stdexcept>

#include "msc/support/str.hpp"

namespace msc::kernels {

namespace {

std::int64_t input(const VerifiedParams& p, std::int64_t pe) {
  return driver::seed_input(p.input_seed, pe);
}

/// Shared scaffolding: machine config + ground-truth vectors sized to the
/// machine, everything defaulted to "never ran".
VerifiedCase shell(std::string name, std::string description,
                   const VerifiedParams& p, std::int64_t initial_active) {
  if (p.n < 1) throw std::invalid_argument(cat("kernel n must be >= 1, got ", p.n));
  VerifiedCase c;
  c.name = std::move(name);
  c.description = std::move(description);
  c.n = p.n;
  c.input_seed = p.input_seed;
  c.config.nprocs = p.nprocs < 0 ? p.n : p.nprocs;
  if (c.config.nprocs < p.n)
    throw std::invalid_argument(
        cat("kernel '", c.name, "' needs nprocs >= n, got nprocs=",
            c.config.nprocs, " n=", p.n));
  c.config.initial_active = initial_active;
  c.config.reuse_halted_pes = false;
  c.expected_results.assign(static_cast<std::size_t>(c.config.nprocs), Value{});
  c.expected_ran.assign(static_cast<std::size_t>(c.config.nprocs), false);
  return c;
}

/// VerifiedCase::max_blocks for `pes` PEs that each make at most `trips`
/// trips around the kernel's loop.
std::int64_t block_bound(std::int64_t pes, std::int64_t trips) {
  return pes * (trips + 1) * 16;
}

/// Trips of a `while (stride < n) stride = stride * 2` loop: ceil(log2 n).
std::int64_t doublings(std::int64_t n) {
  std::int64_t trips = 0;
  for (std::int64_t stride = 1; stride < n; stride *= 2) ++trips;
  return trips;
}

// ---------------------------------------------------------------------------
// reduce — tree reduction over the seeded inputs. Non-receivers halt at
// each level, so the alive count collapses n → 1 (the canonical occupancy-
// shedding kernel). PE 0 returns the total; halted PEs leave result 0.
VerifiedCase make_reduce(const VerifiedParams& p) {
  VerifiedCase c = shell(
      "reduce",
      "Tree reduction of the seeded inputs; non-receivers halt each level "
      "(occupancy sheds n -> 1), PE 0 returns the sum",
      p, p.n);
  c.uses_seed_input = true;
  c.sheds_occupancy = true;
  c.max_blocks = block_bound(p.n, doublings(p.n));
  c.source = cat(R"(poly int x;
poly int buf;

int main() {
  poly int s;
  poly int pid;
  poly int stride;
  s = x;
  pid = procid();
  stride = 1;
  while (stride < )", p.n, R"() {
    buf = s;
    wait;
    if (pid % (stride * 2) != 0) { halt; }
    if (pid + stride < )", p.n, R"() { s = s + buf[[pid + stride]]; }
    stride = stride * 2;
  }
  return s;
}
)");
  // Host-side reference: the same halving recurrence. A level's readers
  // (p ≡ 0 mod 2·stride) and read cells (p + stride) are disjoint, so the
  // in-place update is exact.
  std::vector<std::int64_t> s(static_cast<std::size_t>(p.n));
  for (std::int64_t i = 0; i < p.n; ++i)
    s[static_cast<std::size_t>(i)] = input(p, i);
  for (std::int64_t stride = 1; stride < p.n; stride *= 2)
    for (std::int64_t i = 0; i < p.n; i += 2 * stride)
      if (i + stride < p.n)
        s[static_cast<std::size_t>(i)] += s[static_cast<std::size_t>(i + stride)];
  for (std::int64_t i = 0; i < p.n; ++i) {
    c.expected_ran[static_cast<std::size_t>(i)] = true;
    c.expected_results[static_cast<std::size_t>(i)] =
        Value::of_int(i == 0 ? s[0] : 0);  // halted PEs never return
  }
  return c;
}

// ---------------------------------------------------------------------------
// scan — Hillis–Steele inclusive prefix sum; full occupancy throughout.
VerifiedCase make_scan(const VerifiedParams& p) {
  VerifiedCase c = shell(
      "scan",
      "Hillis-Steele inclusive prefix sum over the seeded inputs (full "
      "occupancy, log2(n) double-barrier rounds)",
      p, p.n);
  c.uses_seed_input = true;
  c.max_blocks = block_bound(p.n, doublings(p.n));
  c.source = cat(R"(poly int x;
poly int buf;

int main() {
  poly int s;
  poly int pid;
  poly int d;
  poly int t;
  s = x;
  pid = procid();
  d = 1;
  while (d < )", p.n, R"() {
    buf = s;
    wait;
    t = 0;
    if (pid >= d) { t = buf[[pid - d]]; }
    wait;
    s = s + t;
    d = d * 2;
  }
  return s;
}
)");
  std::vector<std::int64_t> s(static_cast<std::size_t>(p.n));
  for (std::int64_t i = 0; i < p.n; ++i)
    s[static_cast<std::size_t>(i)] = input(p, i);
  for (std::int64_t d = 1; d < p.n; d *= 2) {
    std::vector<std::int64_t> snap = s;
    for (std::int64_t i = 0; i < p.n; ++i)
      if (i >= d)
        s[static_cast<std::size_t>(i)] += snap[static_cast<std::size_t>(i - d)];
  }
  for (std::int64_t i = 0; i < p.n; ++i) {
    c.expected_ran[static_cast<std::size_t>(i)] = true;
    c.expected_results[static_cast<std::size_t>(i)] =
        Value::of_int(s[static_cast<std::size_t>(i)]);
  }
  return c;
}

// ---------------------------------------------------------------------------
// oddeven — odd-even transposition sort (n phases suffice for n keys).
VerifiedCase make_oddeven(const VerifiedParams& p) {
  VerifiedCase c = shell(
      "oddeven",
      "Odd-even transposition sort of the seeded inputs; PE p returns the "
      "p-th smallest key after n compare-exchange phases",
      p, p.n);
  c.uses_seed_input = true;
  c.max_blocks = block_bound(p.n, p.n);
  c.source = cat(R"(poly int x;
poly int buf;

int main() {
  poly int v;
  poly int pid;
  poly int phase;
  poly int partner;
  poly int other;
  v = x;
  pid = procid();
  phase = 0;
  while (phase < )", p.n, R"() {
    buf = v;
    wait;
    if (phase % 2 == pid % 2) { partner = pid + 1; } else { partner = pid - 1; }
    if (partner >= 0 && partner < )", p.n, R"() {
      other = buf[[partner]];
      if (partner > pid) { if (other < v) { v = other; } }
      if (partner < pid) { if (other > v) { v = other; } }
    }
    wait;
    phase = phase + 1;
  }
  return v;
}
)");
  // After n phases odd-even transposition is provably sorted, so the
  // ground truth is simply the sorted input vector.
  std::vector<std::int64_t> keys(static_cast<std::size_t>(p.n));
  for (std::int64_t i = 0; i < p.n; ++i)
    keys[static_cast<std::size_t>(i)] = input(p, i);
  std::sort(keys.begin(), keys.end());
  for (std::int64_t i = 0; i < p.n; ++i) {
    c.expected_ran[static_cast<std::size_t>(i)] = true;
    c.expected_results[static_cast<std::size_t>(i)] =
        Value::of_int(keys[static_cast<std::size_t>(i)]);
  }
  return c;
}

// ---------------------------------------------------------------------------
// stencil — 1-D Jacobi relaxation (l + 2v + r)/4 with zero boundaries,
// fixed iteration count, integer arithmetic (total division: trunc==floor
// on these non-negative values).
constexpr std::int64_t kStencilIters = 4;

VerifiedCase make_stencil(const VerifiedParams& p) {
  VerifiedCase c = shell(
      "stencil",
      "1-D Jacobi relaxation (l + 2v + r)/4 over the seeded inputs, zero "
      "boundaries, 4 fixed iterations",
      p, p.n);
  c.uses_seed_input = true;
  c.max_blocks = block_bound(p.n, kStencilIters);
  c.source = cat(R"(poly int x;
poly int buf;

int main() {
  poly int v;
  poly int pid;
  poly int it;
  poly int l;
  poly int r;
  v = x;
  pid = procid();
  it = 0;
  while (it < )", kStencilIters, R"() {
    buf = v;
    wait;
    l = 0;
    r = 0;
    if (pid > 0) { l = buf[[pid - 1]]; }
    if (pid < )", p.n - 1, R"() { r = buf[[pid + 1]]; }
    wait;
    v = (l + 2 * v + r) / 4;
    it = it + 1;
  }
  return v;
}
)");
  std::vector<std::int64_t> v(static_cast<std::size_t>(p.n));
  for (std::int64_t i = 0; i < p.n; ++i)
    v[static_cast<std::size_t>(i)] = input(p, i);
  for (std::int64_t it = 0; it < kStencilIters; ++it) {
    std::vector<std::int64_t> snap = v;
    for (std::int64_t i = 0; i < p.n; ++i) {
      const std::int64_t l = i > 0 ? snap[static_cast<std::size_t>(i - 1)] : 0;
      const std::int64_t r =
          i < p.n - 1 ? snap[static_cast<std::size_t>(i + 1)] : 0;
      v[static_cast<std::size_t>(i)] =
          (l + 2 * snap[static_cast<std::size_t>(i)] + r) / 4;
    }
  }
  for (std::int64_t i = 0; i < p.n; ++i) {
    c.expected_ran[static_cast<std::size_t>(i)] = true;
    c.expected_results[static_cast<std::size_t>(i)] =
        Value::of_int(v[static_cast<std::size_t>(i)]);
  }
  return c;
}

// ---------------------------------------------------------------------------
// bfs — synchronous multi-source BFS by pull relaxation on a fixed sparse
// digraph: vertex p's in-neighbours are (5p+1) % n, (3p+2) % n and p-1
// (mod n). Sources are PE 0 plus every PE whose seed is ≡ 0 mod 7; a
// fixed number of rounds is run and the (possibly still unconverged)
// distance is returned — the host reference runs the identical rounds.
constexpr std::int64_t kBfsRounds = 5;
constexpr std::int64_t kBfsInf = 1000000;

VerifiedCase make_bfs(const VerifiedParams& p) {
  VerifiedCase c = shell(
      "bfs",
      "Synchronous BFS frontier expansion (pull relaxation, 5 rounds) on "
      "a fixed sparse digraph; sources = PE 0 and seeds divisible by 7",
      p, p.n);
  c.uses_seed_input = true;
  c.max_blocks = block_bound(p.n, kBfsRounds);
  c.source = cat(R"(poly int x;
poly int buf;

int main() {
  poly int d;
  poly int pid;
  poly int round;
  poly int best;
  poly int t;
  pid = procid();
  d = )", kBfsInf, R"(;
  if (x % 7 == 0) { d = 0; }
  if (pid == 0) { d = 0; }
  round = 0;
  while (round < )", kBfsRounds, R"() {
    buf = d;
    wait;
    best = d;
    t = buf[[(pid * 5 + 1) % )", p.n, R"(]] + 1;
    if (t < best) { best = t; }
    t = buf[[(pid * 3 + 2) % )", p.n, R"(]] + 1;
    if (t < best) { best = t; }
    t = buf[[(pid + )", p.n - 1, R"() % )", p.n, R"(]] + 1;
    if (t < best) { best = t; }
    wait;
    d = best;
    round = round + 1;
  }
  return d;
}
)");
  std::vector<std::int64_t> d(static_cast<std::size_t>(p.n));
  for (std::int64_t i = 0; i < p.n; ++i)
    d[static_cast<std::size_t>(i)] =
        (i == 0 || input(p, i) % 7 == 0) ? 0 : kBfsInf;
  for (std::int64_t r = 0; r < kBfsRounds; ++r) {
    std::vector<std::int64_t> snap = d;
    for (std::int64_t i = 0; i < p.n; ++i) {
      std::int64_t best = snap[static_cast<std::size_t>(i)];
      const std::int64_t in[3] = {(i * 5 + 1) % p.n, (i * 3 + 2) % p.n,
                                  (i + p.n - 1) % p.n};
      for (const std::int64_t q : in)
        best = std::min(best, snap[static_cast<std::size_t>(q)] + 1);
      d[static_cast<std::size_t>(i)] = best;
    }
  }
  for (std::int64_t i = 0; i < p.n; ++i) {
    c.expected_ran[static_cast<std::size_t>(i)] = true;
    c.expected_results[static_cast<std::size_t>(i)] =
        Value::of_int(d[static_cast<std::size_t>(i)]);
  }
  return c;
}

// ---------------------------------------------------------------------------
// workqueue — §3.2.5 work-queue consumer: max(1, n/4) parent PEs each
// spawn (n - parents) / parents children; every child derives its work
// item from its own procid() (spawned PEs start with zeroed memory, so
// inherited state cannot be used), burns a divergent weight loop and
// returns a closed-form checkable sum. With reuse_halted_pes=false the
// claimed PE set is exactly [parents, parents + parents*items): spawn
// always takes the lowest free PE and none are recycled, so results are
// per-PE deterministic even though the oracle interleaves claims.
std::int64_t wq_parents(std::int64_t n) { return std::max<std::int64_t>(1, n / 4); }
std::int64_t wq_weight(std::int64_t pe) { return (pe * 17) % 23 + 1; }
std::int64_t wq_sum(std::int64_t w) {
  std::int64_t s = 0;
  for (std::int64_t k = w; k > 0; --k) s += k * k;
  return s;
}

VerifiedCase make_workqueue(const VerifiedParams& p) {
  const std::int64_t parents = wq_parents(p.n);
  const std::int64_t items = (p.n - parents) / parents;  // per parent
  VerifiedCase c = shell(
      "workqueue",
      "Work-queue consumer: n/4 parents each spawn children that compute "
      "a weight-dependent square-sum from their own procid() and halt "
      "(spawn growth then a straggler shed tail)",
      p, parents);
  c.uses_spawn = true;
  c.sheds_occupancy = true;
  // Parents loop `items` times; a child's weight loop runs at most 23.
  c.max_blocks = block_bound(p.n, std::max<std::int64_t>(items, 23));
  c.source = cat(R"(int main() {
  poly int i;
  i = 0;
  while (i < )", items, R"() {
    spawn {
      poly int w;
      poly int s;
      w = (procid() * 17) % 23 + 1;
      s = 0;
      while (w > 0) { s = s + w * w; w = w - 1; }
      return s;
    }
    i = i + 1;
  }
  return 1000 + procid();
}
)");
  for (std::int64_t i = 0; i < parents; ++i) {
    c.expected_ran[static_cast<std::size_t>(i)] = true;
    c.expected_results[static_cast<std::size_t>(i)] = Value::of_int(1000 + i);
  }
  for (std::int64_t i = parents; i < parents + parents * items; ++i) {
    c.expected_ran[static_cast<std::size_t>(i)] = true;
    c.expected_results[static_cast<std::size_t>(i)] =
        Value::of_int(wq_sum(wq_weight(i)));
  }
  return c;
}

}  // namespace

const std::vector<std::string>& verified_names() {
  static const std::vector<std::string> names = {
      "reduce", "scan", "oddeven", "stencil", "bfs", "workqueue"};
  return names;
}

bool is_verified(const std::string& name) {
  const auto& v = verified_names();
  return std::find(v.begin(), v.end(), name) != v.end();
}

VerifiedCase make_case(const std::string& name, VerifiedParams params) {
  if (name == "reduce") return make_reduce(params);
  if (name == "scan") return make_scan(params);
  if (name == "oddeven") return make_oddeven(params);
  if (name == "stencil") return make_stencil(params);
  if (name == "bfs") return make_bfs(params);
  if (name == "workqueue") return make_workqueue(params);
  throw std::out_of_range(cat("unknown verified kernel '", name, "'"));
}

VerifiedCase parse_case(const std::string& spec, VerifiedParams base) {
  std::string name = spec;
  const auto at = spec.find('@');
  if (at != std::string::npos) {
    name = spec.substr(0, at);
    const std::string num = spec.substr(at + 1);
    try {
      std::size_t used = 0;
      base.n = std::stoll(num, &used);
      if (used != num.size()) throw std::invalid_argument(num);
    } catch (const std::exception&) {
      throw std::invalid_argument(
          cat("bad kernel size in '", spec, "' (want name@n)"));
    }
  }
  return make_case(name, base);
}

std::string check(const VerifiedCase& c, const driver::Observed& obs) {
  
  const std::size_t nprocs = static_cast<std::size_t>(c.config.nprocs);
  if (obs.ran.size() != nprocs || obs.results.size() != nprocs)
    return cat("kernel '", c.name, "': observed ", obs.ran.size(),
               " PEs, expected ", nprocs);
  for (std::size_t pe = 0; pe < nprocs; ++pe) {
    if (obs.ran[pe] != c.expected_ran[pe])
      return cat("kernel '", c.name, "' n=", c.n, " seed=", c.input_seed,
                 ": PE ", pe, " ran=", obs.ran[pe] ? "true" : "false",
                 ", ground truth says ",
                 c.expected_ran[pe] ? "true" : "false");
    if (c.expected_ran[pe] && !(obs.results[pe] == c.expected_results[pe]))
      return cat("kernel '", c.name, "' n=", c.n, " seed=", c.input_seed,
                 ": PE ", pe, " returned ", obs.results[pe].to_string(),
                 ", ground truth ", c.expected_results[pe].to_string());
  }
  return "";
}

}  // namespace msc::kernels
