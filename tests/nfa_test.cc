#include "eval/nfa.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace gpml {
namespace {

using Compiled = testing_util::CompiledDecl;

Compiled Compile(const std::string& text) {
  Compiled c = testing_util::CompileDecl(text);
  EXPECT_TRUE(c.status.ok()) << c.status;
  return c;
}

size_t CountOps(const Program& p, Instr::Op op) {
  size_t n = 0;
  for (const Instr& i : p.code) {
    if (i.op == op) ++n;
  }
  return n;
}

TEST(NfaTest, SimplePathCompiles) {
  Compiled c = Compile("MATCH (x)-[e:T]->(y)");
  EXPECT_EQ(CountOps(c.program, Instr::Op::kNodeCheck), 2u);
  EXPECT_EQ(CountOps(c.program, Instr::Op::kEdgeStep), 1u);
  EXPECT_EQ(CountOps(c.program, Instr::Op::kAccept), 1u);
  EXPECT_FALSE(c.program.has_unbounded);
  EXPECT_EQ(c.program.max_depth, 0);
}

TEST(NfaTest, BoundedQuantifierUnrolls) {
  Compiled c = Compile("MATCH (a)[()-[t:T]->()]{2,4}(b)");
  // 4 copies of the body: 4 edge steps.
  EXPECT_EQ(CountOps(c.program, Instr::Op::kEdgeStep), 4u);
  // 2 optional copies need skip splits.
  EXPECT_EQ(CountOps(c.program, Instr::Op::kSplit), 2u);
  // One frame per copy.
  EXPECT_EQ(CountOps(c.program, Instr::Op::kFrameBegin), 4u);
  EXPECT_EQ(c.program.max_depth, 1);
}

TEST(NfaTest, UnboundedQuantifierLoops) {
  Compiled c = Compile("MATCH TRAIL (a)-[t:T]->*(b)");
  EXPECT_TRUE(c.program.has_unbounded);
  // Loop split + body; guard on the loop frame end.
  bool guarded = false;
  for (const Instr& i : c.program.code) {
    if (i.op == Instr::Op::kFrameEnd && i.guard_progress) guarded = true;
  }
  EXPECT_TRUE(guarded);
  // Declaration restrictor compiles to scope 0 around everything.
  EXPECT_EQ(c.program.code[0].op, Instr::Op::kScopeBegin);
  EXPECT_EQ(c.program.code[0].restrictor, Restrictor::kTrail);
  EXPECT_EQ(c.program.num_scopes, 1);
}

TEST(NfaTest, MinCopiesAreMandatory) {
  Compiled c = Compile("MATCH (a)->{3,}(b)");
  // 3 mandatory copies + 1 loop copy = 4 edge steps.
  EXPECT_EQ(CountOps(c.program, Instr::Op::kEdgeStep), 4u);
}

TEST(NfaTest, UnionSplitsAndJoins) {
  Compiled c = Compile("MATCH (c:City) | (c:Country) | (c:Phone)");
  EXPECT_EQ(CountOps(c.program, Instr::Op::kSplit), 2u);
  EXPECT_EQ(CountOps(c.program, Instr::Op::kJump), 2u);
  EXPECT_EQ(CountOps(c.program, Instr::Op::kTag), 0u);
}

TEST(NfaTest, AlternationTagsBranches) {
  Compiled c = Compile("MATCH (c:City) |+| (c:Country)");
  EXPECT_EQ(CountOps(c.program, Instr::Op::kTag), 2u);
}

TEST(NfaTest, OptionalCompilesToSplit) {
  Compiled c = Compile("MATCH (x)[->(y)]?");
  EXPECT_EQ(CountOps(c.program, Instr::Op::kSplit), 1u);
  // `?` is not an iteration: no quantifier frames.
  EXPECT_EQ(CountOps(c.program, Instr::Op::kFrameBegin), 0u);
}

TEST(NfaTest, ParenWhereGetsFrameAndCheck) {
  Compiled c = Compile("MATCH [(x)-[e:T]->(y) WHERE e.w > 1]");
  EXPECT_EQ(CountOps(c.program, Instr::Op::kFrameBegin), 1u);
  EXPECT_EQ(CountOps(c.program, Instr::Op::kWhereCheck), 1u);
  EXPECT_EQ(CountOps(c.program, Instr::Op::kFrameEnd), 1u);
}

TEST(NfaTest, NestedQuantifierDepths) {
  Compiled c = Compile("MATCH (a)[[()-[t:T]->()]{1,2}]{1,2}(b)");
  EXPECT_EQ(c.program.max_depth, 2);
}

TEST(NfaTest, PathVariableRecorded) {
  Compiled c = Compile("MATCH p = (x)->(y)");
  EXPECT_EQ(c.program.path_var, c.vars->Find("p"));
  Compiled c2 = Compile("MATCH (x)->(y)");
  EXPECT_EQ(c2.program.path_var, -1);
}

TEST(NfaTest, SelectorCarriedAsMetadata) {
  Compiled c = Compile("MATCH ALL SHORTEST (x)->*(y)");
  EXPECT_EQ(c.program.selector.kind, Selector::Kind::kAllShortest);
}

TEST(NfaTest, DisassemblyIsReadable) {
  Compiled c = Compile("MATCH TRAIL (x)-[e:T]->*(y)");
  std::string dis = c.program.ToString();
  EXPECT_NE(dis.find("scope+"), std::string::npos);
  EXPECT_NE(dis.find("edge"), std::string::npos);
  EXPECT_NE(dis.find("accept"), std::string::npos);
}

}  // namespace
}  // namespace gpml
