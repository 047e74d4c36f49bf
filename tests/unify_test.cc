#include "term/unify.h"

#include <gtest/gtest.h>

#include "term/list_utils.h"

namespace chainsplit {
namespace {

class UnifyTest : public ::testing::Test {
 protected:
  TermPool pool_;
};

TEST_F(UnifyTest, IdenticalGroundTermsUnify) {
  Substitution subst;
  EXPECT_TRUE(Unify(pool_, pool_.MakeInt(1), pool_.MakeInt(1), &subst));
  EXPECT_TRUE(subst.empty());
}

TEST_F(UnifyTest, DistinctGroundTermsFail) {
  Substitution subst;
  EXPECT_FALSE(Unify(pool_, pool_.MakeInt(1), pool_.MakeInt(2), &subst));
  EXPECT_FALSE(
      Unify(pool_, pool_.MakeSymbol("a"), pool_.MakeInt(1), &subst));
}

TEST_F(UnifyTest, VariableBindsToTerm) {
  Substitution subst;
  TermId x = pool_.MakeVariable("X");
  TermId a = pool_.MakeSymbol("a");
  EXPECT_TRUE(Unify(pool_, x, a, &subst));
  EXPECT_EQ(subst.Resolve(x, pool_), a);
}

TEST_F(UnifyTest, VariableChainResolves) {
  Substitution subst;
  TermId x = pool_.MakeVariable("X");
  TermId y = pool_.MakeVariable("Y");
  TermId a = pool_.MakeSymbol("a");
  EXPECT_TRUE(Unify(pool_, x, y, &subst));
  EXPECT_TRUE(Unify(pool_, y, a, &subst));
  EXPECT_EQ(subst.Resolve(x, pool_), a);
  EXPECT_EQ(subst.Walk(x, pool_), a);
}

TEST_F(UnifyTest, CompoundUnificationBindsArguments) {
  Substitution subst;
  TermId x = pool_.MakeVariable("X");
  TermId y = pool_.MakeVariable("Y");
  TermId args1[] = {x, pool_.MakeInt(2)};
  TermId args2[] = {pool_.MakeInt(1), y};
  TermId f1 = pool_.MakeCompound("f", args1);
  TermId f2 = pool_.MakeCompound("f", args2);
  EXPECT_TRUE(Unify(pool_, f1, f2, &subst));
  EXPECT_EQ(subst.Resolve(x, pool_), pool_.MakeInt(1));
  EXPECT_EQ(subst.Resolve(y, pool_), pool_.MakeInt(2));
  // Both sides resolve to the same interned term: a most general
  // unifier.
  EXPECT_EQ(subst.Resolve(f1, pool_), subst.Resolve(f2, pool_));
}

TEST_F(UnifyTest, FunctorMismatchFails) {
  Substitution subst;
  TermId args[] = {pool_.MakeInt(1)};
  EXPECT_FALSE(Unify(pool_, pool_.MakeCompound("f", args),
                     pool_.MakeCompound("g", args), &subst));
}

TEST_F(UnifyTest, SharedVariableConsistency) {
  // f(X, X) with f(1, 2) must fail; with f(1, 1) must succeed.
  TermId x = pool_.MakeVariable("X");
  TermId fxx_args[] = {x, x};
  TermId fxx = pool_.MakeCompound("f", fxx_args);
  {
    Substitution subst;
    TermId args[] = {pool_.MakeInt(1), pool_.MakeInt(2)};
    EXPECT_FALSE(Unify(pool_, fxx, pool_.MakeCompound("f", args), &subst));
  }
  {
    Substitution subst;
    TermId args[] = {pool_.MakeInt(1), pool_.MakeInt(1)};
    EXPECT_TRUE(Unify(pool_, fxx, pool_.MakeCompound("f", args), &subst));
    EXPECT_EQ(subst.Resolve(x, pool_), pool_.MakeInt(1));
  }
}

TEST_F(UnifyTest, OccursCheckRejectsCyclicBinding) {
  Substitution subst;
  TermId x = pool_.MakeVariable("X");
  TermId args[] = {x};
  TermId fx = pool_.MakeCompound("f", args);
  EXPECT_FALSE(Unify(pool_, x, fx, &subst, /*occurs_check=*/true));
  Substitution lax;
  EXPECT_TRUE(Unify(pool_, x, fx, &lax, /*occurs_check=*/false));
}

TEST_F(UnifyTest, RollbackRemovesBindings) {
  Substitution subst;
  TermId x = pool_.MakeVariable("X");
  TermId y = pool_.MakeVariable("Y");
  EXPECT_TRUE(Unify(pool_, x, pool_.MakeInt(1), &subst));
  size_t mark = subst.LogSize();
  EXPECT_TRUE(Unify(pool_, y, pool_.MakeInt(2), &subst));
  EXPECT_EQ(subst.size(), 2u);
  subst.RollbackTo(mark);
  EXPECT_EQ(subst.size(), 1u);
  EXPECT_EQ(subst.Lookup(y), kNullTerm);
  EXPECT_EQ(subst.Resolve(x, pool_), pool_.MakeInt(1));
}

TEST_F(UnifyTest, RenameApartKeepsSharing) {
  TermId x = pool_.MakeVariable("X");
  TermId args[] = {x, x, pool_.MakeVariable("Y")};
  TermId f = pool_.MakeCompound("f", args);
  Renaming renaming;
  TermId renamed = RenameApart(pool_, f, &renaming);
  ASSERT_TRUE(pool_.IsCompound(renamed));
  auto rargs = pool_.args(renamed);
  EXPECT_EQ(rargs[0], rargs[1]);       // sharing preserved
  EXPECT_NE(rargs[0], x);              // fresh
  EXPECT_NE(rargs[2], pool_.MakeVariable("Y"));
  EXPECT_NE(rargs[0], rargs[2]);
}

TEST_F(UnifyTest, RenameApartLeavesGroundTermsAlone) {
  std::vector<int64_t> values = {1, 2, 3};
  TermId list = MakeIntList(pool_, values);
  Renaming renaming;
  EXPECT_EQ(RenameApart(pool_, list, &renaming), list);
}

// Property sweep: unifying a random list pattern [V0,...,Vk | T] with a
// ground list binds each Vi to the i-th element and T to the rest.
class UnifyListProperty : public ::testing::TestWithParam<int> {};

TEST_P(UnifyListProperty, PatternAgainstGroundList) {
  TermPool pool;
  int n = GetParam();
  std::vector<int64_t> values;
  for (int i = 0; i < n + 3; ++i) values.push_back(i * 10);
  TermId ground = MakeIntList(pool, values);

  TermId tail = pool.MakeVariable("T");
  std::vector<TermId> vars;
  TermId pattern = tail;
  for (int i = n - 1; i >= 0; --i) {
    std::string name = "V";
    name += std::to_string(i);
    TermId v = pool.MakeVariable(name);
    pattern = pool.MakeCons(v, pattern);
    vars.insert(vars.begin(), v);
  }
  Substitution subst;
  ASSERT_TRUE(Unify(pool, pattern, ground, &subst));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(subst.Resolve(vars[i], pool), pool.MakeInt(values[i]));
  }
  auto rest = ListInts(pool, subst.Resolve(tail, pool));
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, UnifyListProperty,
                         ::testing::Values(0, 1, 2, 5, 16, 64));

}  // namespace
}  // namespace chainsplit
