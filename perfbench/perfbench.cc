// The repository benchmark: four named GPML workloads (point, paths, adhoc,
// remote), each run closed-loop by one client with every engine pinned to
// one thread, every result checked against an independently computed
// expectation, and every end-to-end timing normalized by an interleaved
// reference kernel. README.md in this directory records why each workload
// exists, which per-layer metric should move which end-to-end metric, and
// the measurements behind the design.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//   perfbench --selftest --seed N
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). Progress and diagnostics go to standard error.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <map>
#include <memory>
#include <memory_resource>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "catalog/catalog.h"
#include "eval/engine.h"
#include "gql/json_export.h"
#include "gql/result_table.h"
#include "gql/session.h"
#include "graph/generator.h"
#include "parser/parser.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"

namespace gpml {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T OrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

double Median(const std::vector<double>& v) { return bench::Percentile(v, 50); }

// The `point` and `remote` graph: large enough that the seed index, CSR
// and property columns are far out of the CPU caches (~55k nodes, ~200k
// edges at 30k accounts).
constexpr int kPointAccounts = 30000;
// The `paths` and `adhoc` graph: fraud-300, which fits in cache, so those
// workloads measure the matcher and the compile front end, not memory.
constexpr int kSmallAccounts = 300;

// ---------------------------------------------------------------------------
// Host-drift reference kernel.
//
// The vCPU of a shared host speeds up and slows down for seconds at a time,
// so raw wall-clock numbers of identical code do not repeat. A fixed kernel
// interleaved with the workload sees the same drift, and each end-to-end
// timing is scaled by kNominalMs / (kernel time around it), i.e. reported
// in "milliseconds on a host where the kernel takes kNominalMs".
//
// The kernel does what the engine spends its time on, with the standard
// library only (so no change to the program can speed it up): random
// lookups in a hash table, string-keyed lookups in an ordered map, a sort,
// a switch-dispatched bytecode loop (the shape of the matcher's
// interpreter), and string and list allocations. It never touches the
// global heap while it runs: allocations come from a private arena, and
// everything else is built once from a constant seed. (A kernel allocating
// from the global heap sped up and slowed down with the program's own heap
// state, which a change to the program could then move.) Tracked against
// engine operations second by second over 100 s on a 4-vCPU host, it cut
// the spread of log(op time) from 0.13-0.15 to 0.04-0.06; a pure pointer
// chase only reached 0.11, and a table far larger than the caches tracked
// no better but its speed differed by ~5% from process to process.

constexpr size_t kProbeTableSize = 20000;
constexpr size_t kProbeLookups = 2500;
constexpr int kProbeKeys = 400;
constexpr size_t kProbeSortSize = 1024;
constexpr size_t kProbeCodeSize = 4096;
constexpr int kProbeCodePasses = 4;
constexpr int kProbeStrings = 300;
constexpr int kProbeListNodes = 750;
constexpr size_t kProbeArenaBytes = size_t{1} << 20;
constexpr double kNominalMs = 0.37;
// The kernel runs in bursts of kProbeBurst between stretches of kStretchMs
// of operations, so it evicts the workload's cache lines once per stretch
// rather than every few hundred operations (which put a probe-shaped bump
// right at the p99 of the microsecond-scale workloads).
constexpr int kProbeBurst = 11;
constexpr double kStretchMs = 500.0;

volatile uint64_t g_probe_sink = 0;

class RefProbe {
 public:
  RefProbe() : sorted_(kProbeSortSize), arena_(kProbeArenaBytes) {
    std::mt19937 rng(0x5eed);
    keys_.reserve(kProbeTableSize);
    for (size_t i = 0; i < kProbeTableSize; ++i) {
      keys_.push_back(rng());
      table_[keys_.back()] = static_cast<uint32_t>(i);
    }
    for (int i = 0; i < kProbeKeys; ++i) {
      names_.push_back("element_" + std::to_string(i * 7919 % 1000) +
                       "_property");
      ordered_[names_.back()] = i;
    }
    for (size_t i = 0; i < kProbeCodeSize; ++i) code_.push_back(rng() % 6);
  }

  /// Runs the kernel once; returns its wall time in ms.
  double Run() {
    Clock::time_point start = Clock::now();
    uint64_t h = 0;
    for (size_t i = 0; i < kProbeLookups; ++i) {
      h += table_.find(keys_[(i * 7919) % keys_.size()])->second;
    }
    for (const std::string& name : names_) h += ordered_.find(name)->second;
    std::mt19937 rng(5);
    for (uint32_t& v : sorted_) v = rng();
    std::sort(sorted_.begin(), sorted_.end());
    uint64_t acc = 1;
    for (int pass = 0; pass < kProbeCodePasses; ++pass) {
      for (uint8_t op : code_) {
        switch (op) {
          case 0: acc += 3; break;
          case 1: acc *= 7; break;
          case 2: acc ^= acc >> 5; break;
          case 3: acc -= 11; break;
          case 4: acc = (acc << 3) | 1; break;
          default: acc += sorted_[acc % kProbeSortSize]; break;
        }
      }
    }
    {
      std::pmr::monotonic_buffer_resource arena(
          arena_.data(), arena_.size(), std::pmr::null_memory_resource());
      std::pmr::vector<std::pmr::string> strings(&arena);
      char buf[32];
      for (int i = 0; i < kProbeStrings; ++i) {
        std::snprintf(buf, sizeof(buf), "element_name_%06d", i);
        strings.emplace_back(buf);
      }
      std::pmr::list<int> list(&arena);
      for (int i = 0; i < kProbeListNodes; ++i) list.push_back(i);
      h += strings.back().size() + list.size();
    }
    g_probe_sink = h + acc + sorted_[7];
    return MsSince(start);
  }

  /// Median of `n` back-to-back kernel runs.
  double Sample(int n) {
    std::vector<double> ms;
    for (int i = 0; i < n; ++i) ms.push_back(Run());
    return Median(ms);
  }

 private:
  std::vector<uint32_t> keys_;
  std::unordered_map<uint32_t, uint32_t> table_;
  std::vector<std::string> names_;
  std::map<std::string, int> ordered_;
  std::vector<uint32_t> sorted_;
  std::vector<uint8_t> code_;
  std::vector<std::byte> arena_;
};

// ---------------------------------------------------------------------------
// Result checks: every operation's expected row count and row hash is
// computed before the timed loop through a different path (Engine::Match
// over the literal-inlined text on a second graph instance).

struct Expected {
  size_t rows = 0;
  uint64_t hash = 0;
};

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return (h ^ 0xff) * 0x100000001b3ull;  // Field separator.
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Hash of a projected table: every cell's rendering, row-major.
uint64_t HashTable(const Table& table) {
  uint64_t h = kFnvBasis;
  for (const Row& row : table.rows()) {
    for (const Value& v : row) h = Fnv(h, v.ToString());
    h = Fnv(h, "\n");
  }
  return h;
}

/// Hash of wire rows: the RowToJson bytes of each row, in order.
uint64_t HashJsonRows(const std::vector<std::string>& rows) {
  uint64_t h = kFnvBasis;
  for (const std::string& row : rows) h = Fnv(h, row);
  return h;
}

std::string Inline(std::string text, const std::string& owner) {
  const std::string key = "$owner";
  size_t at = text.find(key);
  if (at != std::string::npos) text.replace(at, key.size(), "'" + owner + "'");
  return text;
}

/// A statement: the MATCH part (what Engine::Prepare, Lint and the server
/// take) and the RETURN part (what the GQL host projects through).
struct Stmt {
  std::string match;
  std::string ret;
  std::string Full() const { return match + " " + ret; }
};

/// The oracle: Engine::Match over the parsed literal statement, projected
/// through ProjectRows and the statement's LIMIT.
Result<Table> OracleTable(const Engine& engine, const std::string& text) {
  GPML_ASSIGN_OR_RETURN(MatchStatement stmt, ParseStatement(text));
  GPML_ASSIGN_OR_RETURN(MatchOutput out, engine.Match(stmt.pattern));
  GPML_ASSIGN_OR_RETURN(Table table,
                        ProjectRows(out, engine.graph(), stmt.return_items,
                                    stmt.return_distinct));
  if (stmt.limit.has_value()) table.TruncateRows(*stmt.limit);
  return table;
}

// ---------------------------------------------------------------------------
// Per-layer accumulators and exact counters.

/// Running means of per-layer timings, keyed by metric name.
class LayerSums {
 public:
  void Add(const std::string& key, double v) {
    auto& [sum, n] = sums_[key];
    sum += v;
    ++n;
  }
  double Mean(const std::string& key) const {
    auto it = sums_.find(key);
    if (it == sums_.end() || it->second.second == 0) return 0;
    return it->second.first / static_cast<double>(it->second.second);
  }

 private:
  std::map<std::string, std::pair<double, size_t>> sums_;
};

/// Exact counters over a fixed prefix of a workload's operation sequence;
/// they repeat exactly for a seed (the self-test checks that).
struct Counts {
  uint64_t ops = 0;
  uint64_t seeds = 0;
  uint64_t steps = 0;
  uint64_t rows = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t batch_blocks = 0;
  uint64_t batch_ops = 0;
  uint64_t batch_candidates = 0;
  uint64_t batch_survivors = 0;

  void Add(const EngineMetrics& m) {
    ++ops;
    seeds += m.seeded_nodes;
    steps += m.matcher_steps;
    rows += m.rows;
    cache_hits += m.plan_cache_hits;
    cache_misses += m.plan_cache_misses;
    batch_blocks += m.batch_blocks;
    batch_ops += m.batch_blocks > 0 ? 1 : 0;
    batch_candidates += m.batch_candidates;
    batch_survivors += m.batch_survivors;
  }
  std::vector<uint64_t> Vector() const {
    return {ops,          seeds,      steps,     rows,
            cache_hits,   cache_misses, batch_blocks, batch_ops,
            batch_candidates, batch_survivors};
  }
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ops=%" PRIu64 " seeds=%" PRIu64 " steps=%" PRIu64
                  " rows=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
                  " batch_blocks=%" PRIu64,
                  ops, seeds, steps, rows, cache_hits, cache_misses,
                  batch_blocks);
    return buf;
  }
};

// Number of leading operations the exact counters cover.
constexpr size_t kCountOps = 1000;

EngineOptions PinnedOptions() {
  EngineOptions options;
  options.num_threads = 1;
  return options;
}

/// Runs the whole process on one CPU, the last one it may use: the client
/// and the threads of `remote`'s in-process server hand off on that CPU.
/// Unpinned, each hand-off woke another idle vCPU, and on a shared host
/// that wake-up cost so much and varied so much that `remote` ran at
/// 1,100-4,300 ops/s across runs of the same code; pinned, at 5,900-6,700.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      std::fprintf(stderr, "perfbench: pinned to CPU %d\n", cpu);
    }
    return;
  }
}

/// The workload graph. The large graph follows the workload seed; the
/// small one is the same for every seed (its seed only orders the
/// operations), because on 300 accounts the reachable sets, and with them
/// the cost of a path operation, change too much from one generated graph
/// to the next for two sets of runs to agree.
FraudGraphOptions GraphOptions(int accounts, uint64_t seed) {
  FraudGraphOptions options;
  options.num_accounts = accounts;
  if (accounts > kSmallAccounts) options.seed = seed;
  return options;
}

/// What one set-up took apart, for the traced run's per-layer metrics.
struct SetupLayers {
  double build_s = 0;
  double stats_s = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;

  /// Computes every operation's expected result on a second graph
  /// instance, outside the timed set-up, and frees that graph unless
  /// `keep` (the traced remote run serializes on it).
  virtual void BuildOracle(bool keep) = 0;
  /// One full set-up (graph, index and stats build, first Prepare, server
  /// start). Teardown drops it again; it is not timed.
  virtual SetupLayers Setup() = 0;
  virtual void Teardown() = 0;
  /// Runs operation `i` untraced; returns its latency in ms and sets *ok
  /// when the result matches the expectation.
  virtual double Run(size_t i, bool* ok) = 0;
  /// Runs operation `i` composed from the host's public functions, timing
  /// each layer into `layers`; returns the op latency in ms.
  virtual double RunTraced(size_t i, bool* ok, LayerSums* layers) = 0;
  /// Exact engine counters of operation `i`.
  virtual void Count(size_t i, Counts* counts) = 0;
  /// Elements (nodes + edges) of the workload graph.
  virtual size_t elements() const = 0;
  /// Length of the operation sequence; every pass of pool_size() runs each
  /// operation once.
  virtual size_t pool_size() const = 0;
  /// The operation that run i executes.
  virtual size_t OpAt(size_t i) const { return i % pool_size(); }
  /// For each operation, the first one that is the same (only `adhoc`
  /// repeats a text under several indices).
  virtual std::vector<size_t> distinct_ops() const {
    std::vector<size_t> first(pool_size());
    std::iota(first.begin(), first.end(), 0);
    return first;
  }
  virtual size_t sessions_expired() const { return 0; }
};

/// One operation of a prepared-statement workload: statement index plus
/// the bound suspect.
struct BoundOp {
  size_t stmt = 0;
  int owner = 0;
  Expected want;
};

Params OwnerParams(int owner) {
  return Params{{"owner", Value::String("u" + std::to_string(owner))}};
}

/// `count` distinct (statement, suspect) pairs in a seeded order: all of
/// them when there are fewer, so every run covers the same work.
std::vector<BoundOp> DrawOps(size_t stmts, int accounts, size_t count,
                             uint64_t seed) {
  std::vector<BoundOp> all;
  for (size_t s = 0; s < stmts; ++s) {
    for (int a = 0; a < accounts; ++a) all.push_back({s, a, {}});
  }
  std::mt19937_64 rng(seed ^ 0x51ed);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min(count, all.size()));
  return all;
}

/// `point` and `paths`: GQL Session prepared statements bound per call.
class PreparedWorkload : public Workload {
 public:
  PreparedWorkload(std::vector<Stmt> stmts, int accounts, size_t pool,
                   uint64_t seed)
      : stmts_(std::move(stmts)),
        graph_options_(GraphOptions(accounts, seed)),
        ops_(DrawOps(stmts_.size(), accounts, pool, seed)) {}

  void BuildOracle(bool /*keep*/) override {
    PropertyGraph graph = MakeFraudGraph(graph_options_);
    Engine engine(graph, PinnedOptions());
    for (BoundOp& op : ops_) {
      std::string text =
          Inline(stmts_[op.stmt].Full(), "u" + std::to_string(op.owner));
      Table table = OrDie(OracleTable(engine, text), "oracle " + text);
      op.want = {table.num_rows(), HashTable(table)};
    }
  }

  void Teardown() override {
    prepared_.clear();
    queries_.clear();
    session_.reset();
    catalog_.reset();
  }

  SetupLayers Setup() override {
    SetupLayers layers;
    Clock::time_point start = Clock::now();
    PropertyGraph graph = MakeFraudGraph(graph_options_);
    layers.build_s = MsSince(start) / 1e3;
    elements_ = graph.num_nodes() + graph.num_edges();
    catalog_ = std::make_unique<Catalog>();
    if (Status s = catalog_->AddGraph("fraud", std::move(graph)); !s.ok()) {
      Die("add graph", s);
    }
    session_ = std::make_unique<Session>(*catalog_, PinnedOptions());
    if (Status s = session_->UseGraph("fraud"); !s.ok()) Die("use graph", s);
    graph_ = session_->graph();
    // The first Prepare builds the planner statistics (lazily, on the
    // graph) and compiles cold; the statements the loop executes are
    // prepared again from the warm plan cache, the steady state of a
    // long-lived client.
    for (size_t s = 0; s < stmts_.size(); ++s) {
      Clock::time_point prep = Clock::now();
      OrDie(session_->Prepare(stmts_[s].Full()), "prepare");
      if (s == 0) layers.stats_s = MsSince(prep) / 1e3;
    }
    for (const Stmt& stmt : stmts_) {
      prepared_.push_back(OrDie(session_->Prepare(stmt.Full()), "prepare"));
    }
    return layers;
  }

  double Run(size_t i, bool* ok) override {
    const BoundOp& op = ops_[i % ops_.size()];
    Params params = OwnerParams(op.owner);
    Clock::time_point start = Clock::now();
    Result<Table> table = prepared_[op.stmt].Execute(params);
    double ms = MsSince(start);
    *ok = table.ok() && table->num_rows() == op.want.rows &&
          HashTable(*table) == op.want.hash;
    return ms;
  }

  double RunTraced(size_t i, bool* ok, LayerSums* layers) override {
    const BoundOp& op = ops_[i % ops_.size()];
    EnsureTracedQueries();
    EngineMetrics metrics;
    EngineOptions options = PinnedOptions();
    options.metrics = &metrics;
    PreparedQuery query = queries_[op.stmt].WithOptions(options);
    Params params = OwnerParams(op.owner);
    Clock::time_point start = Clock::now();
    Result<MatchOutput> out = query.Execute(params);
    double exec_ms = MsSince(start);
    if (!out.ok()) {
      *ok = false;
      return exec_ms;
    }
    Clock::time_point project = Clock::now();
    Result<Table> table = ProjectRows(*out, *graph_, items_[op.stmt].items,
                                      items_[op.stmt].distinct);
    double project_ms = MsSince(project);
    *ok = table.ok() && table->num_rows() == op.want.rows &&
          HashTable(*table) == op.want.hash;
    layers->Add("eval.execute_us", exec_ms * 1e3);
    layers->Add("gql.project_us", project_ms * 1e3);
    layers->Add("eval.seed_ms", metrics.seed_ms);
    layers->Add("eval.match_ms", metrics.exec_ms);
    layers->Add("eval.unattributed_us",
                (exec_ms - metrics.plan_ms - metrics.seed_ms -
                 metrics.exec_ms) * 1e3);
    return exec_ms + project_ms;
  }

  void Count(size_t i, Counts* counts) override {
    const BoundOp& op = ops_[i % ops_.size()];
    EnsureTracedQueries();
    EngineMetrics metrics;
    EngineOptions options = PinnedOptions();
    options.metrics = &metrics;
    OrDie(queries_[op.stmt].WithOptions(options).Execute(
              OwnerParams(op.owner)),
          "count execute");
    counts->Add(metrics);
  }

  size_t elements() const override { return elements_; }
  size_t pool_size() const override { return ops_.size(); }

 private:
  struct Items {
    std::vector<ReturnItem> items;
    bool distinct = false;
  };

  /// Engine-level prepared queries plus RETURN items for the traced
  /// composition (prepared from the warm plan cache, like the loop's).
  void EnsureTracedQueries() {
    if (!queries_.empty()) return;
    Engine engine(*graph_, PinnedOptions());
    items_.clear();
    for (const Stmt& stmt : stmts_) {
      MatchStatement parsed = OrDie(ParseStatement(stmt.Full()), "parse");
      queries_.push_back(OrDie(engine.Prepare(parsed.pattern), "prepare"));
      items_.push_back({parsed.return_items, parsed.return_distinct});
    }
  }

  std::vector<Stmt> stmts_;
  FraudGraphOptions graph_options_;
  std::vector<BoundOp> ops_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Session> session_;
  const PropertyGraph* graph_ = nullptr;
  std::vector<PreparedStatement> prepared_;
  std::vector<PreparedQuery> queries_;
  std::vector<Items> items_;
  size_t elements_ = 0;
};

std::vector<Stmt> PointStatements() {
  return {
      {"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)",
       "RETURN y.owner AS dst, t.amount AS amount"},
      {"MATCH (x:Account WHERE x.owner = $owner)-[:Transfer]->(m:Account)"
       "-[:Transfer]->(y:Account)",
       "RETURN m.owner AS mid, y.owner AS dst"},
      {"MATCH (x:Account WHERE x.owner = $owner)-[:hasPhone]-(p:Phone)"
       "-[:hasPhone]-(y:Account)",
       "RETURN p.number AS phone, y.owner AS other"},
  };
}

std::vector<Stmt> PathStatements() {
  return {
      {"MATCH ANY (x:Account WHERE x.owner = $owner)-[:Transfer]->+"
       "(y:Account WHERE y.isBlocked = 'yes')",
       "RETURN y.owner AS dst"},
      {"MATCH ANY SHORTEST p = (x:Account WHERE x.owner = $owner)"
       "-[:Transfer]->+(y:Account WHERE y.isBlocked = 'yes')",
       "RETURN y.owner AS dst, p"},
      {"MATCH TRAIL (x:Account WHERE x.owner = $owner)-[:Transfer]->{1,3}"
       "(y:Account)",
       "RETURN y.owner AS dst"},
      // Figure 4's city join. The ANY on the fixed-length declaration
      // changes no row (an account is located in one city, so each (x, y)
      // pair has one such path) but keeps it off the batch matcher, so the
      // whole workload runs the scalar binding-level NFA.
      {"MATCH ANY (x:Account WHERE x.owner = $owner)-[:isLocatedIn]->"
       "(g:City)<-[:isLocatedIn]-(y:Account WHERE y.isBlocked = 'yes'), "
       "ANY (x)-[:Transfer]->+(y)",
       "RETURN g.name AS city, y.owner AS dst"},
  };
}

/// `adhoc`: one-shot Session::Execute of literal texts from a seeded shape
/// generator. The sequence cycles through kAdhocTexts distinct one-off
/// texts (far more than the 128-entry plan cache) and, on a quarter of the
/// operations, a hot set of kAdhocHot texts that repeat.
constexpr size_t kAdhocTexts = 4096;
static_assert((kAdhocTexts & (kAdhocTexts - 1)) == 0, "OpAt needs 2^k");
constexpr size_t kAdhocHot = 16;

Stmt AdhocText(std::mt19937_64* rng) {
  auto uniform = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  std::string owner = "'u" + std::to_string(uniform(0, kSmallAccounts - 1)) +
                      "'";
  std::string x = "MATCH (x:Account WHERE x.owner = " + owner + ")";
  switch (uniform(0, 4)) {
    case 0:
      return {x + "-[t:Transfer WHERE t.amount > " +
                  std::to_string(uniform(0, 11)) + "000000]->(y:Account)",
              "RETURN y.owner AS dst, t.amount AS amount"};
    case 1:
      return {x + "-[:Transfer]->(m:Account)-[:Transfer]->"
                  "(y:Account WHERE y.isBlocked = '" +
                  (uniform(0, 1) == 0 ? "yes" : "no") + "')",
              "RETURN m.owner AS mid, y.owner AS dst LIMIT " +
                  std::to_string(uniform(1, 10))};
    case 2:
      return {x + "-[:hasPhone]-(p:Phone)-[:hasPhone]-(y:Account)",
              "RETURN DISTINCT y.owner AS other"};
    case 3:
      return {x + "-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-"
                  "(y:Account WHERE y.isBlocked = 'yes')",
              "RETURN c.name AS city, y.owner AS dst LIMIT " +
                  std::to_string(uniform(1, 10))};
    default:
      return {x + "-[:signInWithIP]->(i:IP)<-[:signInWithIP]-(y:Account)",
              "RETURN i.number AS ip, y.owner AS other"};
  }
}

class AdhocWorkload : public Workload {
 public:
  explicit AdhocWorkload(uint64_t seed)
      : graph_options_(GraphOptions(kSmallAccounts, seed)), seed_(seed) {
    std::mt19937_64 rng(seed ^ 0xad40c);
    std::vector<Stmt> hot;
    for (size_t i = 0; i < kAdhocHot; ++i) hot.push_back(AdhocText(&rng));
    std::uniform_int_distribution<size_t> pick_hot(0, kAdhocHot - 1);
    std::uniform_int_distribution<int> quarter(0, 3);
    for (size_t i = 0; i < kAdhocTexts; ++i) {
      texts_.push_back(quarter(rng) == 0 ? hot[pick_hot(rng)]
                                         : AdhocText(&rng));
    }
  }

  void BuildOracle(bool /*keep*/) override {
    PropertyGraph graph = MakeFraudGraph(graph_options_);
    Engine engine(graph, PinnedOptions());
    want_.clear();
    for (const Stmt& text : texts_) {
      Table table =
          OrDie(OracleTable(engine, text.Full()), "oracle " + text.Full());
      want_.push_back({table.num_rows(), HashTable(table)});
    }
  }

  void Teardown() override {
    session_.reset();
    catalog_.reset();
  }

  /// Every pass runs the texts in its own order, k = (a * j + b) mod n with
  /// a odd, drawn from the seed and the pass. With one order for every
  /// pass, the plan cache's wholesale drop (every 128 misses) fell on the
  /// same texts pass after pass on some seeds, and made them slow on up to
  /// all of their executions.
  size_t OpAt(size_t i) const override {
    uint64_t h = seed_ + 0x9e3779b97f4a7c15ull * (i / kAdhocTexts + 1);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;  // splitmix64 finalizer.
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    size_t a = static_cast<size_t>(h | 1);
    size_t b = static_cast<size_t>(h >> 32);
    return (a * (i % kAdhocTexts) + b) & (kAdhocTexts - 1);
  }

  SetupLayers Setup() override {
    SetupLayers layers;
    Clock::time_point start = Clock::now();
    PropertyGraph graph = MakeFraudGraph(graph_options_);
    layers.build_s = MsSince(start) / 1e3;
    elements_ = graph.num_nodes() + graph.num_edges();
    catalog_ = std::make_unique<Catalog>();
    if (Status s = catalog_->AddGraph("fraud", std::move(graph)); !s.ok()) {
      Die("add graph", s);
    }
    session_ = std::make_unique<Session>(*catalog_, PinnedOptions());
    if (Status s = session_->UseGraph("fraud"); !s.ok()) Die("use graph", s);
    graph_ = session_->graph();
    Clock::time_point prep = Clock::now();
    OrDie(session_->Prepare(texts_[0].Full()), "prepare");
    layers.stats_s = MsSince(prep) / 1e3;
    return layers;
  }

  double Run(size_t i, bool* ok) override {
    size_t k = OpAt(i);
    std::string text = texts_[k].Full();
    Clock::time_point start = Clock::now();
    Result<Table> table = session_->Execute(text);
    double ms = MsSince(start);
    *ok = table.ok() && table->num_rows() == want_[k].rows &&
          HashTable(*table) == want_[k].hash;
    return ms;
  }

  double RunTraced(size_t i, bool* ok, LayerSums* layers) override {
    size_t k = OpAt(i);
    const Stmt& text = texts_[k];
    std::string full = text.Full();
    EngineMetrics metrics;
    EngineOptions options = PinnedOptions();
    options.metrics = &metrics;
    Engine engine(*graph_, options);

    Clock::time_point lint = Clock::now();
    g_probe_sink = engine.Lint(text.match).size();
    layers->Add("analysis.lint_us", MsSince(lint) * 1e3);

    Clock::time_point start = Clock::now();
    Result<MatchStatement> stmt = ParseStatement(full);
    double parse_ms = MsSince(start);
    *ok = false;
    if (!stmt.ok()) return parse_ms;
    Clock::time_point prep = Clock::now();
    Result<PreparedQuery> query = engine.Prepare(stmt->pattern);
    double prepare_ms = MsSince(prep);
    if (!query.ok()) return parse_ms + prepare_ms;
    Clock::time_point exec = Clock::now();
    Result<MatchOutput> out = query->Execute();
    double exec_ms = MsSince(exec);
    if (!out.ok()) return parse_ms + prepare_ms + exec_ms;
    Clock::time_point project = Clock::now();
    Result<Table> table = ProjectRows(*out, *graph_, stmt->return_items,
                                      stmt->return_distinct);
    if (table.ok() && stmt->limit.has_value()) {
      table->TruncateRows(*stmt->limit);
    }
    double project_ms = MsSince(project);
    *ok = table.ok() && table->num_rows() == want_[k].rows &&
          HashTable(*table) == want_[k].hash;
    layers->Add("parser.parse_us", parse_ms * 1e3);
    if (!query->from_cache()) {
      layers->Add("planner.prepare_us", prepare_ms * 1e3);  // Cold only.
    }
    layers->Add("planner.prepare_all_us", prepare_ms * 1e3);
    layers->Add("eval.execute_us", exec_ms * 1e3);
    layers->Add("eval.seed_ms", metrics.seed_ms);
    layers->Add("eval.match_ms", metrics.exec_ms);
    layers->Add("gql.project_us", project_ms * 1e3);
    return parse_ms + prepare_ms + exec_ms + project_ms;
  }

  void Count(size_t i, Counts* counts) override {
    const Stmt& text = texts_[OpAt(i)];
    EngineMetrics metrics;
    EngineOptions options = PinnedOptions();
    options.metrics = &metrics;
    Engine engine(*graph_, options);
    MatchStatement stmt = OrDie(ParseStatement(text.Full()), "parse");
    PreparedQuery query = OrDie(engine.Prepare(stmt.pattern), "prepare");
    OrDie(query.Execute(), "count execute");
    counts->Add(metrics);
  }

  size_t elements() const override { return elements_; }
  size_t pool_size() const override { return texts_.size(); }
  std::vector<size_t> distinct_ops() const override {
    std::unordered_map<std::string, size_t> seen;
    std::vector<size_t> first;
    for (size_t k = 0; k < texts_.size(); ++k) {
      first.push_back(seen.emplace(texts_[k].Full(), k).first->second);
    }
    return first;
  }

 private:
  FraudGraphOptions graph_options_;
  uint64_t seed_;
  std::vector<Stmt> texts_;
  std::vector<Expected> want_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Session> session_;
  const PropertyGraph* graph_ = nullptr;
  size_t elements_ = 0;
};

/// `remote`: point's statements over one server::Client connection to an
/// in-process server::Server.
class RemoteWorkload : public Workload {
 public:
  RemoteWorkload(size_t pool, uint64_t seed)
      : graph_options_(GraphOptions(kPointAccounts, seed)) {
    for (const Stmt& stmt : PointStatements()) matches_.push_back(stmt.match);
    ops_ = DrawOps(matches_.size(), kPointAccounts, pool, seed);
  }

  ~RemoteWorkload() override { Teardown(); }

  /// The check bench_server uses: the RowToJson bytes of each row of the
  /// in-process execution on an identical graph.
  void BuildOracle(bool keep) override {
    oracle_graph_ = std::make_unique<PropertyGraph>(
        MakeFraudGraph(graph_options_));
    Engine engine(*oracle_graph_, PinnedOptions());
    for (BoundOp& op : ops_) {
      std::string text =
          Inline(matches_[op.stmt], "u" + std::to_string(op.owner));
      MatchOutput out = OrDie(engine.Match(text), "oracle " + text);
      std::vector<std::string> rows;
      for (const ResultRow& row : out.rows) {
        rows.push_back(RowToJson(out, row, *oracle_graph_));
      }
      op.want = {rows.size(), HashJsonRows(rows)};
    }
    if (keep) {
      for (const std::string& match : matches_) {
        local_.push_back(OrDie(engine.Prepare(match), "prepare"));
      }
    } else {
      oracle_graph_.reset();
    }
  }

  void Teardown() override {
    if (client_.connected()) client_.Bye();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  SetupLayers Setup() override {
    SetupLayers layers;
    Clock::time_point start = Clock::now();
    PropertyGraph graph = MakeFraudGraph(graph_options_);
    layers.build_s = MsSince(start) / 1e3;
    elements_ = graph.num_nodes() + graph.num_edges();
    server::ServerOptions options;
    options.worker_threads = 2;
    server_ = std::make_unique<server::Server>(options);
    if (Status s = server_->AddGraph("fraud", std::move(graph)); !s.ok()) {
      Die("add graph", s);
    }
    if (Status s = server_->Start(); !s.ok()) Die("server start", s);
    client_ = OrDie(server::Client::Connect("127.0.0.1", server_->port(),
                                            "bench"),
                    "connect");
    Clock::time_point prep = Clock::now();
    if (Status s = Reprepare(); !s.ok()) Die("prepare", s);
    layers.stats_s = MsSince(prep) / 1e3;
    return layers;
  }

  double Run(size_t i, bool* ok) override {
    const BoundOp& op = ops_[i % ops_.size()];
    Clock::time_point start = Clock::now();
    Result<server::ExecuteResult> result = Execute(op);
    double ms = MsSince(start);
    *ok = false;
    if (result.ok() && result->rows.size() == op.want.rows) {
      uint64_t h = kFnvBasis;
      for (const server::ClientRow& row : result->rows) h = Fnv(h, row.raw);
      *ok = h == op.want.hash;
    }
    return ms;
  }

  double RunTraced(size_t i, bool* ok, LayerSums* layers) override {
    const BoundOp& op = ops_[i % ops_.size()];
    Params params = OwnerParams(op.owner);
    Clock::time_point start = Clock::now();
    Result<server::Client::RawResponse> response =
        client_.RoundTrip(ExecuteLine(op, params));
    if (response.ok() && ExpiredResponse(*response) && Recover()) {
      response = client_.RoundTrip(ExecuteLine(op, params));
    }
    double ms = MsSince(start);
    *ok = false;
    const server::JsonValue* timing =
        response.ok() ? response->parsed.Find("timing") : nullptr;
    const server::JsonValue* rows =
        response.ok() ? response->parsed.Find("rows") : nullptr;
    if (timing == nullptr || rows == nullptr || !rows->is_array()) return ms;
    uint64_t h = kFnvBasis;
    for (const server::JsonValue& row : rows->array_v) {
      h = Fnv(h, row.RawSpan(response->raw));
    }
    *ok = rows->array_v.size() == op.want.rows && h == op.want.hash;
    double server_ms = 0;
    for (const char* key : {"admission_ms", "queue_ms", "exec_ms"}) {
      const server::JsonValue* v = timing->Find(key);
      double value = v != nullptr && v->is_number() ? v->AsDouble() : 0;
      layers->Add(std::string("server.") + key, value);
      server_ms += value;
    }
    layers->Add("server.wire_us", (ms - server_ms) * 1e3);

    // The serialization the server did for this response, timed on the
    // same in-process result.
    Result<MatchOutput> local = local_[op.stmt].Execute(params);
    if (local.ok()) {
      Clock::time_point ser = Clock::now();
      for (const ResultRow& row : local->rows) {
        g_probe_sink = RowToJson(*local, row, *oracle_graph_).size();
      }
      layers->Add("gql.serialize_us", MsSince(ser) * 1e3);
    }
    return ms;
  }

  /// The server's engine counters are not on the wire: only operations and
  /// received rows are counted.
  void Count(size_t i, Counts* counts) override {
    Result<server::ExecuteResult> result = Execute(ops_[i % ops_.size()]);
    ++counts->ops;
    if (result.ok()) counts->rows += result->rows.size();
  }

  size_t elements() const override { return elements_; }
  size_t pool_size() const override { return ops_.size(); }
  size_t sessions_expired() const override { return sessions_expired_; }

 private:
  /// Executes `op`; a session the reaper expired is recovered and the
  /// operation retried, inside the caller's timing.
  Result<server::ExecuteResult> Execute(const BoundOp& op) {
    Params params = OwnerParams(op.owner);
    Result<server::ExecuteResult> result =
        client_.Execute(stmts_[op.stmt], params);
    if (!result.ok() && client_.last_reason() == "SESSION_EXPIRED" &&
        Recover()) {
      result = client_.Execute(stmts_[op.stmt], params);
    }
    return result;
  }

  std::string ExecuteLine(const BoundOp& op, const Params& params) const {
    return "{\"op\":\"execute\",\"stmt\":" +
           std::to_string(stmts_[op.stmt]) +
           ",\"params\":" + server::ParamsToWireJson(params) + "}";
  }

  static bool ExpiredResponse(const server::Client::RawResponse& response) {
    const server::JsonValue* error = response.parsed.Find("error");
    const server::JsonValue* reason =
        error != nullptr ? error->Find("reason") : nullptr;
    return reason != nullptr && reason->is_string() &&
           reason->string_v == "SESSION_EXPIRED";
  }

  /// The reaper can expire a busy session (see README.md, "remote"):
  /// re-hello on the same connection, select the graph and prepare again.
  bool Recover() {
    ++sessions_expired_;
    Result<server::Client::RawResponse> hello =
        client_.RoundTrip("{\"op\":\"hello\",\"tenant\":\"bench\"}");
    return hello.ok() && Reprepare().ok();
  }

  Status Reprepare() {
    GPML_RETURN_IF_ERROR(client_.UseGraph("fraud"));
    stmts_.clear();
    for (const std::string& match : matches_) {
      GPML_ASSIGN_OR_RETURN(server::Client::PreparedInfo info,
                            client_.Prepare(match));
      stmts_.push_back(info.stmt);
    }
    return Status::OK();
  }

  FraudGraphOptions graph_options_;
  std::vector<std::string> matches_;
  std::vector<BoundOp> ops_;
  std::unique_ptr<PropertyGraph> oracle_graph_;
  std::vector<PreparedQuery> local_;
  std::unique_ptr<server::Server> server_;
  server::Client client_;
  std::vector<int64_t> stmts_;
  size_t sessions_expired_ = 0;
  size_t elements_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "point") {
    return std::make_unique<PreparedWorkload>(PointStatements(),
                                              kPointAccounts, 10000, seed);
  }
  if (name == "paths") {
    return std::make_unique<PreparedWorkload>(PathStatements(),
                                              kSmallAccounts, 1200, seed);
  }
  if (name == "adhoc") return std::make_unique<AdhocWorkload>(seed);
  if (name == "remote") return std::make_unique<RemoteWorkload>(5000, seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The timed loop and its summary.

/// One kept execution of an operation: its raw latency and the stretch it
/// ran in (which selects its drift factor).
struct Sample {
  float ms = 0;
  uint32_t stretch = 0;
};

// Kept executions per operation.
constexpr size_t kSlots = 32;

/// Per-operation latency samples in memory of a fixed size, allocated (and
/// zero-filled, so resident) before the oracle and set-up, so that the
/// benchmark's own records do not move `peak_rss_mb` with the number of
/// operations a run gets through (vector doublings of one record per
/// execution moved `adhoc`'s by a quarter between runs).
///
/// Run i is in pass i / pool, which runs every operation once. Every pass
/// whose number is a multiple of the stride is kept; once kSlots passes
/// are kept, every other one is dropped and the stride doubles, so the
/// kept passes stay spread evenly over the run and every operation keeps
/// as many.
class SampleStore {
 public:
  explicit SampleStore(size_t pool)
      : pool_(pool), samples_(pool * kSlots), counts_(pool) {}

  void Reset() {
    stride_ = 1;
    std::fill(counts_.begin(), counts_.end(), 0);
  }

  /// Records run `i`, which executed operation `op`.
  void Add(size_t i, size_t op, double ms, uint32_t stretch) {
    size_t pass = i / pool_;
    if (pass % stride_ != 0) return;
    size_t slot = pass / stride_;
    if (slot == kSlots) {  // First operation of the pass: all are full.
      for (size_t o = 0; o < pool_; ++o) {
        Sample* s = &samples_[o * kSlots];
        for (size_t k = 0; k < kSlots / 2; ++k) s[k] = s[2 * k];
        counts_[o] = kSlots / 2;
      }
      stride_ *= 2;
      slot = kSlots / 2;
    }
    samples_[op * kSlots + slot] = {static_cast<float>(ms), stretch};
    counts_[op] = static_cast<uint8_t>(slot + 1);
  }

  size_t pool() const { return pool_; }
  /// The kept samples of operation `op`.
  const Sample* begin(size_t op) const { return &samples_[op * kSlots]; }
  const Sample* end(size_t op) const { return begin(op) + counts_[op]; }

 private:
  size_t pool_;
  size_t stride_ = 1;
  std::vector<Sample> samples_;
  std::vector<uint8_t> counts_;
};

struct LoopResult {
  std::vector<double> burst_ms;  // Median kernel time of each burst: burst
                                 // s opens stretch s and closes s - 1.
  std::vector<double> stretch_ms;  // Raw op time summed per stretch.
  std::vector<size_t> stretch_ops;  // Operations per stretch.
  size_t attempted = 0;
  size_t failed = 0;
};

/// Closed loop, one client: runs `op(i)` for i = 0, 1, ... until `seconds`
/// elapse, with a kernel burst before, between and after the stretches.
/// Latencies go to `store`, which is reset first.
template <typename Op>
LoopResult TimedLoop(double seconds, RefProbe* probe, const Workload& workload,
                     SampleStore* store, Op&& op) {
  LoopResult result;
  store->Reset();
  auto after = [](double ms) {
    return Clock::now() +
           std::chrono::microseconds(static_cast<int64_t>(ms * 1e3));
  };
  Clock::time_point deadline = after(seconds * 1e3);
  result.burst_ms.push_back(probe->Sample(kProbeBurst));
  result.stretch_ms.push_back(0);
  result.stretch_ops.push_back(0);
  Clock::time_point stretch_end = after(kStretchMs);
  for (size_t i = 0;; ++i) {
    Clock::time_point now = Clock::now();
    if (now >= deadline) break;
    if (now >= stretch_end) {
      result.burst_ms.push_back(probe->Sample(kProbeBurst));
      result.stretch_ms.push_back(0);
      result.stretch_ops.push_back(0);
      stretch_end = after(kStretchMs);
    }
    bool ok = false;
    double ms = op(i, &ok);
    ++result.attempted;
    if (!ok) ++result.failed;
    result.stretch_ms.back() += ms;
    ++result.stretch_ops.back();
    store->Add(i, workload.OpAt(i), ms,
               static_cast<uint32_t>(result.burst_ms.size() - 1));
  }
  result.burst_ms.push_back(probe->Sample(kProbeBurst));
  return result;
}

struct LoopSummary {
  double p50_ms = 0, p99_ms = 0, throughput = 0;  // Normalized.
  double raw_p50_ms = 0, raw_p99_ms = 0, raw_throughput = 0;
  double ref_ms = 0;
};

/// Per-stretch drift factors: kNominalMs over the median of the kernel
/// bursts within kDriftRadius stretches on either side (the drift lasts
/// seconds; one burst is itself noisy).
constexpr size_t kDriftRadius = 2;

std::vector<double> DriftFactors(const std::vector<double>& burst_ms) {
  std::vector<double> factors;
  for (size_t s = 0; s + 1 < burst_ms.size(); ++s) {
    size_t lo = s >= kDriftRadius ? s - kDriftRadius : 0;
    size_t hi = std::min(burst_ms.size(), s + kDriftRadius + 2);
    std::vector<double> around(burst_ms.begin() + lo, burst_ms.begin() + hi);
    factors.push_back(kNominalMs / Median(around));
  }
  return factors;
}

struct SliceStats {
  double p50 = 0, p99 = 0, throughput = 0;
};

/// p50, p99 and throughput under one set of per-stretch factors.
///
/// p50 is the median of every kept execution. p99 is taken over the
/// distinct operations of the workload's sequence (≥ 1,200 of them), of
/// each operation's median kept latency: the tail of the operation mix.
/// Single executions would measure the host instead: the vCPU speeds up
/// and slows down by up to a quarter for fractions of a second, faster
/// than the kernel bursts can follow (on `paths` one operation took 2.1 to
/// 5.2 ms within one run; the p99 of single executions differed by 11%
/// between two seeds, that of per-operation medians by 3%). Repeats of an
/// operation count once, so that one heavy text in `adhoc`'s hot set (1.5%
/// of the sequence each) cannot fill the top percent by itself.
///
/// Throughput is the median over stretches of operations per second of
/// client time spent waiting on operations; the benchmark's own result
/// checks and probes are excluded. One burst from a neighbour on the host
/// moves one stretch, not the result.
SliceStats Stats(const LoopResult& loop, const SampleStore& store,
                 const std::vector<size_t>& distinct,
                 const std::vector<double>& factors) {
  SliceStats s;
  std::vector<double> all, per_op;
  std::vector<std::vector<double>> op_ms(store.pool());
  for (size_t op = 0; op < store.pool(); ++op) {
    for (const Sample* it = store.begin(op); it != store.end(op); ++it) {
      op_ms[distinct[op]].push_back(it->ms * factors[it->stretch]);
      all.push_back(op_ms[distinct[op]].back());
    }
  }
  for (const std::vector<double>& ms : op_ms) {
    if (!ms.empty()) per_op.push_back(Median(ms));
  }
  s.p50 = Median(all);
  s.p99 = bench::Percentile(per_op, 99);
  std::vector<double> tput;
  for (size_t st = 0; st < loop.stretch_ops.size(); ++st) {
    double ms = loop.stretch_ms[st] * factors[st];
    if (ms > 0) tput.push_back(loop.stretch_ops[st] / (ms / 1e3));
  }
  s.throughput = Median(tput);
  return s;
}

LoopSummary Summarize(const LoopResult& loop, const SampleStore& store,
                      const std::vector<size_t>& distinct) {
  std::vector<double> factors = DriftFactors(loop.burst_ms);
  SliceStats norm = Stats(loop, store, distinct, factors);
  SliceStats raw =
      Stats(loop, store, distinct, std::vector<double>(factors.size(), 1.0));
  LoopSummary s;
  s.p50_ms = norm.p50;
  s.p99_ms = norm.p99;
  s.throughput = norm.throughput;
  s.raw_p50_ms = raw.p50;
  s.raw_p99_ms = raw.p99;
  s.raw_throughput = raw.throughput;
  s.ref_ms = Median(loop.burst_ms);
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

// Set-up repeats: at least kMinSetups, and more until kSetupBudgetS has
// been spent (a millisecond-scale set-up timed once is mostly noise); the
// median is reported, each repeat normalized by kernel probes taken right
// before and after it.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetS = 1.0;

struct SetupResult {
  double setup_s = 0, raw_setup_s = 0;
  SetupLayers layers;  // Medians.
};

SetupResult TimedSetups(Workload* workload, RefProbe* probe) {
  std::vector<double> norm, raw, build, stats;
  Clock::time_point first = Clock::now();
  for (int r = 0; r < kMaxSetups; ++r) {
    if (r >= kMinSetups && MsSince(first) / 1e3 >= kSetupBudgetS) break;
    workload->Teardown();
    double before = probe->Sample(kProbeBurst);
    Clock::time_point start = Clock::now();
    SetupLayers layers = workload->Setup();
    double s = MsSince(start) / 1e3;
    double after = probe->Sample(kProbeBurst);
    raw.push_back(s);
    norm.push_back(s * kNominalMs / std::sqrt(before * after));
    build.push_back(layers.build_s);
    stats.push_back(layers.stats_s);
  }
  SetupResult result;
  result.setup_s = Median(norm);
  result.raw_setup_s = Median(raw);
  result.layers.build_s = Median(build);
  result.layers.stats_s = Median(stats);
  return result;
}

// ---------------------------------------------------------------------------
// Output.

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  void Print(bool correct, size_t attempted, size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

int RunWorkload(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  RefProbe probe;
  SampleStore store(workload->pool_size());
  std::vector<size_t> distinct = workload->distinct_ops();
  Clock::time_point oracle_start = Clock::now();
  workload->BuildOracle(/*keep=*/args.trace && args.workload == "remote");
  std::fprintf(stderr, "perfbench: %s seed %" PRIu64 ": oracle %.2f s\n",
               args.workload.c_str(), args.seed,
               MsSince(oracle_start) / 1e3);
  SetupResult setup = TimedSetups(workload.get(), &probe);
  std::fprintf(stderr, "perfbench: set-up %.3f s (raw %.3f s)\n",
               setup.setup_s, setup.raw_setup_s);

  MetricsJson json;
  if (!args.trace) {
    LoopResult loop = TimedLoop(
        args.seconds, &probe, *workload, &store,
        [&](size_t i, bool* ok) { return workload->Run(i, ok); });
    double peak_mb = PeakRssMb();  // Before the summary's own buffers.
    LoopSummary s = Summarize(loop, store, distinct);
    std::fprintf(stderr,
                 "perfbench: %zu ops, %zu failed, p50 %.4f ms (raw %.4f), "
                 "p99 %.4f ms (raw %.4f), %.1f ops/s (raw %.1f), ref %.4f ms, "
                 "sessions expired %zu\n",
                 loop.attempted, loop.failed, s.p50_ms, s.raw_p50_ms,
                 s.p99_ms, s.raw_p99_ms, s.throughput, s.raw_throughput,
                 s.ref_ms, workload->sessions_expired());
    json.Add("latency_p50_ms", s.p50_ms, "ms");
    json.Add("latency_p99_ms", s.p99_ms, "ms");
    json.Add("throughput_ops", s.throughput, "1/s");
    json.Add("peak_rss_mb", peak_mb, "MB");
    json.Add("setup_s", setup.setup_s, "s");
    bool correct = loop.failed == 0 && loop.attempted >= 1;
    json.Print(correct, loop.attempted, loop.failed);
    return 0;
  }

  // Traced run: exact counters over a fixed prefix, then an untraced and a
  // traced half of equal length (their difference is the tracing
  // overhead).
  Counts counts;
  for (size_t i = 0; i < kCountOps; ++i) workload->Count(i, &counts);
  double peak_mb = PeakRssMb();
  LoopResult plain = TimedLoop(
      args.seconds / 2, &probe, *workload, &store,
      [&](size_t i, bool* ok) { return workload->Run(i, ok); });
  LoopSummary ps = Summarize(plain, store, distinct);
  LayerSums layers;
  LoopResult traced = TimedLoop(
      args.seconds / 2, &probe, *workload, &store, [&](size_t i, bool* ok) {
        return workload->RunTraced(i, ok, &layers);
      });
  LoopSummary ts = Summarize(traced, store, distinct);
  std::fprintf(stderr, "perfbench: counts %s\n", counts.ToString().c_str());

  double ops = static_cast<double>(counts.ops);
  double op_us =
      1e3 *
      std::accumulate(traced.stretch_ms.begin(), traced.stretch_ms.end(),
                      0.0) /
      std::max<double>(1, static_cast<double>(traced.attempted));
  auto share = [op_us](double us) { return op_us > 0 ? us / op_us : 0; };

  json.Add("parser.parse_us", layers.Mean("parser.parse_us"), "us");
  json.Add("analysis.lint_us", layers.Mean("analysis.lint_us"), "us");
  json.Add("planner.prepare_us", layers.Mean("planner.prepare_us"), "us");
  json.Add("planner.prepare_share",
           share(layers.Mean("planner.prepare_all_us")), "ratio");
  uint64_t lookups = counts.cache_hits + counts.cache_misses;
  json.Add("planner.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(counts.cache_hits) /
                             static_cast<double>(lookups)
                       : 0,
           "ratio");
  json.Add("eval.execute_us", layers.Mean("eval.execute_us"), "us");
  json.Add("eval.execute_share", share(layers.Mean("eval.execute_us")),
           "ratio");
  json.Add("eval.seed_ms", layers.Mean("eval.seed_ms"), "ms");
  json.Add("eval.match_ms", layers.Mean("eval.match_ms"), "ms");
  json.Add("eval.unattributed_us", layers.Mean("eval.unattributed_us"),
           "us");
  json.Add("eval.steps_per_op", static_cast<double>(counts.steps) / ops,
           "count");
  json.Add("eval.seeds_per_op", static_cast<double>(counts.seeds) / ops,
           "count");
  json.Add("eval.rows_per_op", static_cast<double>(counts.rows) / ops,
           "count");
  json.Add("eval.batch_op_share", static_cast<double>(counts.batch_ops) / ops,
           "ratio");
  json.Add("eval.batch_survivor_rate",
           counts.batch_candidates > 0
               ? static_cast<double>(counts.batch_survivors) /
                     static_cast<double>(counts.batch_candidates)
               : 0,
           "ratio");
  json.Add("gql.project_us", layers.Mean("gql.project_us"), "us");
  json.Add("gql.serialize_us", layers.Mean("gql.serialize_us"), "us");
  for (const char* key :
       {"server.admission_ms", "server.queue_ms", "server.exec_ms"}) {
    json.Add(key, layers.Mean(key), "ms");
  }
  json.Add("server.wire_us", layers.Mean("server.wire_us"), "us");
  json.Add("server.outside_exec_share",
           args.workload == "remote"
               ? 1 - share(layers.Mean("server.exec_ms") * 1e3)
               : 0,
           "ratio");
  json.Add("server.sessions_expired",
           static_cast<double>(workload->sessions_expired()), "count");
  json.Add("graph.build_s", setup.layers.build_s, "s");
  json.Add("planner.stats_s", setup.layers.stats_s, "s");
  json.Add("graph.bytes_per_element",
           peak_mb * 1024 * 1024 /
               static_cast<double>(std::max<size_t>(1, workload->elements())),
           "B");
  json.Add("host.ref_ms", ps.ref_ms, "ms");
  json.Add("host.raw.latency_p50_ms", ps.raw_p50_ms, "ms");
  json.Add("host.raw.latency_p99_ms", ps.raw_p99_ms, "ms");
  json.Add("host.raw.throughput_ops", ps.raw_throughput, "1/s");
  json.Add("host.raw.setup_s", setup.raw_setup_s, "s");
  json.Add("trace.overhead_pct",
           ps.throughput > 0 ? 100 * (1 - ts.throughput / ps.throughput) : 0,
           "%");
  size_t attempted = plain.attempted + traced.attempted;
  size_t failed = plain.failed + traced.failed;
  json.Print(failed == 0, attempted, failed);
  return 0;
}

/// Exact counters must repeat for a seed and change with the seed.
int SelfTest(uint64_t seed) {
  bool ok = true;
  for (const char* name : {"point", "paths", "adhoc", "remote"}) {
    std::vector<std::vector<uint64_t>> runs;
    for (uint64_t s : {seed, seed, seed + 1}) {
      std::unique_ptr<Workload> workload = MakeWorkload(name, s);
      workload->Setup();
      Counts counts;
      for (size_t i = 0; i < kCountOps; ++i) workload->Count(i, &counts);
      std::fprintf(stderr, "selftest %s seed %" PRIu64 ": %s\n", name, s,
                   counts.ToString().c_str());
      runs.push_back(counts.Vector());
    }
    bool repeats = runs[0] == runs[1];
    bool varies = runs[0] != runs[2];
    std::fprintf(stderr, "selftest %s: %s, %s\n", name,
                 repeats ? "repeats" : "DOES NOT REPEAT",
                 varies ? "changes with the seed" : "DOES NOT CHANGE");
    ok = ok && repeats && varies;
  }
  std::printf("{\"selftest\": %s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace gpml

int main(int argc, char** argv) {
  using namespace gpml::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload point|paths|adhoc|remote "
                 "--seed N --seconds S --trace 0|1\n"
                 "       perfbench --selftest --seed N\n");
    return 2;
  }
  PinToOneCpu();  // Before any thread starts, so all of them inherit it.
  return args.selftest ? SelfTest(args.seed) : RunWorkload(args);
}
