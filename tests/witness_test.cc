// Differential test of the witness route (docs/planner.md, "Selector
// route"). Every Program::exact_visit_key program runs on compact
// (pc, node, start) entries with parent-linked bindings. Its oracle is the
// general selector search: RunPattern on a copy of the same bound program
// with exact_visit_key cleared. On seeded random multigraphs (self-loops,
// parallel edges, undirected edges) both must return the same MatchSet —
// bindings, witness paths and order — at 1 and 4 threads; under kTruncate
// and max_matches both deliver prefixes of it; the endpoint pairs must
// match reference_eval; and the engine's cursor must deliver the rows
// Execute does, with the declaration reported on the witness route. (Step
// parity with the search the witness route replaced is pinned in
// bench_csr and selector_test.)

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "eval/nfa.h"
#include "eval/reference_eval.h"
#include "graph/generator.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

/// Exact-key shapes: the ExactVisitKeyEligibility cases of
/// bfs_soundness_test, kernel and non-kernel inline WHEREs, (x)…(x)
/// cycles, `{2,}`, nested quantifiers, `-+`, undirected steps, parameters,
/// path variables, unions and zero-width iterations.
const char* kQueries[] = {
    "MATCH ANY (x)-[:L0]->+(y)",
    "MATCH ANY SHORTEST p = (x WHERE x.w > 20)-[:L0|L1]->+(y WHERE y.w > x.w)",
    "MATCH ANY (x)[()-[:L0]->()-[:L1]->()]+(x)",
    "MATCH ANY (x:L0)-[:L1|L2]->+(y WHERE y.w < 50)",
    "MATCH ANY SHORTEST (x)-[]->{2,}(y)",
    "MATCH ANY SHORTEST (x)[[()-[:L0|L2]->()]{1,2}]{1,3}(y)",
    "MATCH ANY (x)-+(y)",
    "MATCH ANY p = (x)~[]~+(y)",
    "MATCH ANY SHORTEST (x)<-[]-+(x)",
    "MATCH ANY SHORTEST (x)-[:L0|L1 WHERE x.w > 10]->+(y)",
    "MATCH ANY (x)[()-[:L1|L0]->(WHERE x.w > 30)]+(y)",
    "MATCH ANY SHORTEST p = (x)-[WHERE $lo < 60]-{1,}(y WHERE y.w >= $lo)",
    "MATCH ANY (x)[()-[:L0]->()]*(y)",
    "MATCH ANY ()-[:L0|L2]->+()",
    // Unions park several entries per closure: the fork order decides
    // which of them expands first, and so the witness.
    "MATCH ANY (x)[()-[:L0]->() | ()-[:L1|L2]->()]+(y)",
    "MATCH ANY SHORTEST p = (x)[()-[]->() | ()<-[]-()]{1,3}(y)",
    // Zero-width iterations: guard_progress must cut them in the closure.
    "MATCH ANY (x)[[()-[:L0|L1]->()]?]*(y)",
    "MATCH ANY SHORTEST (x)[[()-[:L0]->()]{0,1}]{1,}(y)",
};

const Params kParams = {{"lo", Value::Int(30)}};

using testing_util::Compile;
using testing_util::CompiledDecl;
using testing_util::IsPrefix;
using testing_util::RouteRun;
using testing_util::RunOnce;

void CheckQuery(const PropertyGraph& g, const std::string& text) {
  SCOPED_TRACE(text + " on " + g.Summary());
  CompiledDecl c = Compile(g, text);
  ASSERT_TRUE(c.status.ok()) << c.status;
  ASSERT_TRUE(c.program.exact_visit_key);
  ASSERT_NE(c.program.witness, nullptr);
  Program oracle = c.program;
  oracle.exact_visit_key = false;

  // Full runs at 1 and 4 threads (shards of one seed each): the same
  // MatchSet as the general search, in the same order. The general search
  // keys visits on full search states and builds every successor before keying
  // it, so it may run more steps; the witness route's own count does not
  // depend on the shard count.
  RouteRun full;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    MatcherOptions options;
    options.num_threads = threads;
    options.min_seeds_per_shard = 1;
    RouteRun witness = RunOnce(g, c.program, *c.vars, options, false, &kParams);
    RouteRun general = RunOnce(g, oracle, *c.vars, options, false, &kParams);
    const std::string what = "threads=" + std::to_string(threads);
    ASSERT_TRUE(witness.status.ok()) << what << ": " << witness.status;
    ASSERT_TRUE(general.status.ok()) << what << ": " << general.status;
    EXPECT_EQ(witness.route, MatchRoute::kWitness) << what;
    EXPECT_EQ(general.route, MatchRoute::kBfs) << what;
    EXPECT_EQ(witness.rows, general.rows) << what;
    EXPECT_LE(witness.steps, general.steps) << what;
    if (threads == 1) full = witness;
    EXPECT_EQ(witness.steps, full.steps) << what;
  }

  // Step budgets: an error run trips exactly one step past max_steps; a
  // kTruncate run (4 threads asked, one shard run) delivers the prefix the
  // sequential search had kept by then — for the general search too.
  for (size_t max_steps : {size_t{1}, full.steps / 3, full.steps / 2,
                           full.steps - 1, full.steps}) {
    if (max_steps == 0) continue;
    const bool trips = max_steps < full.steps;
    for (bool partial : {false, true}) {
      MatcherOptions options;
      options.max_steps = max_steps;
      options.num_threads = partial ? 4 : 1;
      options.min_seeds_per_shard = 1;
      RouteRun witness = RunOnce(g, c.program, *c.vars, options,
                                 partial, &kParams);
      const std::string what = "max_steps=" + std::to_string(max_steps) +
                               (partial ? " kTruncate" : " kError");
      EXPECT_EQ(witness.status.code(),
                trips && !partial ? StatusCode::kResourceExhausted
                                  : StatusCode::kOk)
          << what << ": " << witness.status;
      EXPECT_EQ(witness.steps, trips ? max_steps + 1 : full.steps) << what;
      if (!partial) continue;
      EXPECT_EQ(witness.truncated, trips) << what;
      EXPECT_TRUE(IsPrefix(witness.rows, full.rows)) << what;
      RouteRun general = RunOnce(g, oracle, *c.vars, options,
                                 partial, &kParams);
      EXPECT_TRUE(general.status.ok()) << what << ": " << general.status;
      EXPECT_TRUE(IsPrefix(general.rows, full.rows)) << what;
    }
  }

  // max_matches stops both searches at the same kept binding.
  if (full.rows.size() > 1) {
    MatcherOptions options;
    options.max_matches = full.rows.size() - 1;
    RouteRun witness = RunOnce(g, c.program, *c.vars, options, true, &kParams);
    RouteRun general = RunOnce(g, oracle, *c.vars, options, true, &kParams);
    const std::vector<std::string> kept(full.rows.begin(),
                                        full.rows.end() - 1);
    EXPECT_TRUE(witness.truncated);
    EXPECT_EQ(witness.rows, kept);
    EXPECT_EQ(general.rows, kept);
  }

  // Through the engine: the cursor delivers Execute's rows, and both
  // report the declaration on the witness route.
  const Params params =
      text.find("$lo") != std::string::npos ? kParams : Params();
  EngineMetrics executed;
  EngineMetrics streamed;
  EngineOptions engine_options;
  engine_options.metrics = &executed;
  Engine engine(g, engine_options);
  Result<PreparedQuery> prepared = engine.Prepare(text);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result<MatchOutput> out = prepared->Execute(params);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(executed.witness_decls, 1u);
  engine_options.metrics = &streamed;
  Result<Cursor> cursor =
      prepared->WithOptions(engine_options).Open(params);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  size_t i = 0;
  for (const RowView& view : *cursor) {
    ASSERT_LT(i, out->rows.size());
    EXPECT_EQ(view.row->bindings[0]->ToString(g, *out->vars),
              out->rows[i].bindings[0]->ToString(g, *out->vars));
    EXPECT_EQ(view.row->bindings[0]->path.edges(),
              out->rows[i].bindings[0]->path.edges());
    ++i;
  }
  EXPECT_EQ(i, out->rows.size());
  EXPECT_EQ(streamed.witness_decls, 1u);
}

/// The witness route's endpoint pairs (and, under ANY SHORTEST, their
/// path lengths) are the literal §6 evaluator's.
void CheckAgainstReference(const PropertyGraph& g, const std::string& text) {
  // A shortest witness repeats no (node, position) state, so N + 1
  // iterations reach every endpoint pair on these patterns.
  ReferenceOptions options;
  options.expansion_cap = g.num_nodes() + 1;
  EngineMetrics metrics;
  EngineOptions engine_options;
  engine_options.metrics = &metrics;
  EXPECT_EQ(testing_util::EngineJoinRows(g, text, engine_options),
            testing_util::ReferenceJoinRows(g, text, options))
      << text << " on " << g.Summary();
  EXPECT_EQ(metrics.witness_decls, 1u);
}

class WitnessRouteTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, const char*>> {};

TEST_P(WitnessRouteTest, MatchesTheGeneralSelectorSearch) {
  auto [seed, query] = GetParam();
  PropertyGraph g =
      MakeRandomGraph(/*num_nodes=*/9, /*num_edges=*/22, /*num_labels=*/3,
                      /*undirected_fraction=*/0.3, seed);
  CheckQuery(g, query);
  // The reference expands every path up to its cap: a smaller graph, and
  // no $parameters (it binds none).
  if (std::string(query).find('$') != std::string::npos) return;
  PropertyGraph small =
      MakeRandomGraph(/*num_nodes=*/6, /*num_edges=*/9, /*num_labels=*/3,
                      /*undirected_fraction=*/0.3, seed);
  CheckAgainstReference(small, query);
}

INSTANTIATE_TEST_SUITE_P(
    RandomMultigraphs, WitnessRouteTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{4}),
                       ::testing::ValuesIn(kQueries)),
    [](const ::testing::TestParamInfo<WitnessRouteTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_q" +
             std::to_string(info.index % std::size(kQueries));
    });

TEST(WitnessRouteTest, ShardsALargerGraph) {
  PropertyGraph g = MakeRandomGraph(/*num_nodes=*/40, /*num_edges=*/110,
                                    /*num_labels=*/3,
                                    /*undirected_fraction=*/0.2,
                                    /*seed=*/11);
  for (const char* query : {"MATCH ANY (x)-[:L0|L1]->+(y WHERE y.w > 40)",
                            "MATCH ANY SHORTEST p = (x)-+(y)"}) {
    CheckQuery(g, query);
  }
}

TEST(WitnessRouteTest, UnboundParameterFailsLikeTheGeneralSearch) {
  PropertyGraph g = MakeRandomGraph(9, 22, 3, 0.3, 5);
  CompiledDecl c =
      Compile(g, "MATCH ANY (x)-[:L0]->+(y WHERE y.w > $missing)");
  ASSERT_TRUE(c.status.ok()) << c.status;
  ASSERT_TRUE(c.program.exact_visit_key);
  Program oracle = c.program;
  oracle.exact_visit_key = false;
  RouteRun witness = RunOnce(g, c.program, *c.vars, MatcherOptions(),
                             false, &kParams);
  RouteRun general = RunOnce(g, oracle, *c.vars, MatcherOptions(),
                             false, &kParams);
  EXPECT_FALSE(witness.status.ok());
  EXPECT_EQ(witness.status.code(), general.status.code());
  EXPECT_EQ(witness.status.message(), general.status.message());
}

TEST(WitnessRouteTest, RefusesAProgramWithoutItsWitnessPlan) {
  PropertyGraph g = MakeRandomGraph(9, 22, 3, 0.3, 6);
  CompiledDecl c = Compile(g, "MATCH ANY (x)-[:L0]->+(y)");
  ASSERT_TRUE(c.status.ok()) << c.status;
  Program unbound = c.program;
  unbound.witness = nullptr;
  Result<MatchSet> r = RunPattern(g, unbound, *c.vars, MatcherOptions());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gpml
