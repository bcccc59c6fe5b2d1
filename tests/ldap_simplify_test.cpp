// The structural simplifications a filter rewrite must perform (flatten
// same-kind composites, drop duplicate children, cancel double negation,
// collapse single-child composites), checked through FilterIr
// canonicalization: interning the input and interning the expected
// spelling must give the same node.

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "ldap/compiled_filter.h"
#include "ldap/entry.h"
#include "ldap/filter_ir.h"
#include "ldap/filter_parser.h"
#include "oracles/filter_eval.h"

namespace fbdr::ldap {
namespace {

FilterInterner& interner() {
  return FilterInterner::for_schema(Schema::default_instance());
}

FilterIrPtr canonical(const char* text) {
  return interner().intern(parse_filter(text));
}

void expect_canonical(const char* input, const char* expected) {
  EXPECT_EQ(canonical(input), canonical(expected))
      << input << " canonicalizes to " << canonical(input)->key()
      << ", not to " << canonical(expected)->key();
}

TEST(Simplify, PredicatesUnchanged) {
  for (const char* text : {"(sn=Doe)", "(serialnumber=04*)", "(age>=30)"}) {
    const FilterPtr parsed = parse_filter(text);
    const FilterIrPtr ir = interner().intern(parsed);
    EXPECT_EQ(ir->kind(), parsed->kind()) << text;
    EXPECT_EQ(ir->attribute(), parsed->attribute()) << text;
  }
}

TEST(Simplify, FlattensNestedAnd) {
  expect_canonical("(&(a=1)(&(b=2)(c=3)))", "(&(a=1)(b=2)(c=3))");
  expect_canonical("(&(&(a=1)(b=2))(&(c=3)(d=4)))", "(&(a=1)(b=2)(c=3)(d=4))");
  EXPECT_EQ(canonical("(&(a=1)(&(b=2)(c=3)))")->children().size(), 3u);
}

TEST(Simplify, FlattensNestedOr) {
  expect_canonical("(|(a=1)(|(b=2)(c=3)))", "(|(a=1)(b=2)(c=3))");
}

TEST(Simplify, DoesNotFlattenMixedKinds) {
  const FilterIrPtr ir = canonical("(&(a=1)(|(b=2)(c=3)))");
  ASSERT_EQ(ir->kind(), FilterKind::And);
  ASSERT_EQ(ir->children().size(), 2u);
  EXPECT_NE(canonical("(&(a=1)(|(b=2)(c=3)))"), canonical("(&(a=1)(b=2)(c=3))"));
}

TEST(Simplify, RemovesDuplicateChildren) {
  expect_canonical("(|(sn=Doe)(sn=Doe))", "(sn=Doe)");
  expect_canonical("(&(a=1)(b=2)(a=1))", "(&(a=1)(b=2))");
}

TEST(Simplify, DuplicatesAcrossFlattenedLevels) {
  expect_canonical("(&(a=1)(&(a=1)(b=2)))", "(&(a=1)(b=2))");
}

TEST(Simplify, DoubleNegationCancels) {
  expect_canonical("(!(!(sn=Doe)))", "(sn=Doe)");
  expect_canonical("(!(!(!(sn=Doe))))", "(!(sn=Doe))");
}

TEST(Simplify, NegationOfCompositeSimplifiesInside) {
  expect_canonical("(!(&(a=1)(&(b=2)(b=2))))", "(!(&(a=1)(b=2)))");
}

TEST(Simplify, CollapseToSingleChild) {
  // The IR normalizes assertion values, so matching-rule-equal spellings
  // are duplicates and collapse with the rest.
  expect_canonical("(&(sn=Doe)(sn=doe))", "(sn=Doe)");
  expect_canonical("(|(a=1)(a=1)(a=1))", "(a=1)");
}

TEST(Simplify, NullPassesThrough) {
  EXPECT_EQ(interner().intern(FilterPtr{}), nullptr);
}

TEST(Simplify, PreservesSemanticsOnRandomFilters) {
  // Property: the canonical form matches exactly the entries the original
  // spelling matches under the AST oracle.
  const std::vector<std::string> values = {"a", "b", "c"};
  const std::vector<std::string> attrs = {"sn", "ou"};
  std::mt19937 rng(4242);

  std::function<FilterPtr(int)> gen = [&](int depth) -> FilterPtr {
    std::uniform_int_distribution<int> kind(0, depth > 0 ? 5 : 2);
    std::uniform_int_distribution<std::size_t> attr_pick(0, attrs.size() - 1);
    std::uniform_int_distribution<std::size_t> value_pick(0, values.size() - 1);
    switch (kind(rng)) {
      case 0:
        return Filter::equality(attrs[attr_pick(rng)], values[value_pick(rng)]);
      case 1:
        return Filter::greater_eq(attrs[attr_pick(rng)], values[value_pick(rng)]);
      case 2:
        return Filter::present(attrs[attr_pick(rng)]);
      case 3:
        return Filter::make_not(gen(depth - 1));
      case 4: {
        std::vector<FilterPtr> children{gen(depth - 1), gen(depth - 1),
                                        gen(depth - 1)};
        return Filter::make_and(std::move(children));
      }
      default: {
        std::vector<FilterPtr> children{gen(depth - 1), gen(depth - 1)};
        return Filter::make_or(std::move(children));
      }
    }
  };

  std::vector<Entry> universe;
  for (std::size_t i = 0; i <= values.size(); ++i) {
    for (std::size_t j = 0; j <= values.size(); ++j) {
      Entry e(Dn::parse("cn=u,o=t"));
      e.add_value("objectclass", "x");
      if (i < values.size()) e.add_value("sn", values[i]);
      if (j < values.size()) e.add_value("ou", values[j]);
      universe.push_back(std::move(e));
    }
  }

  for (int trial = 0; trial < 300; ++trial) {
    const FilterPtr original = gen(3);
    const FilterIrPtr ir = interner().intern(original);
    const FilterPtr rewritten = ir->to_filter();
    const CompiledFilter compiled = CompiledFilter::compile(ir, interner());
    for (const Entry& entry : universe) {
      const bool expected = oracles::matches(*original, entry);
      ASSERT_EQ(oracles::matches(*rewritten, entry), expected)
          << original->to_string() << " vs " << ir->key();
      ASSERT_EQ(compiled.matches(entry), expected)
          << original->to_string() << " vs " << ir->key();
    }
  }
}

}  // namespace
}  // namespace fbdr::ldap
