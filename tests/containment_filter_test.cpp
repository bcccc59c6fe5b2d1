#include "containment/filter_containment.h"

#include <gtest/gtest.h>

#include <optional>

#include "ldap/filter_ir.h"
#include "ldap/filter_parser.h"
#include "oracles/legacy_containment.h"

namespace fbdr::containment {
namespace {

bool contained(const char* inner, const char* outer) {
  return filter_contained(*ldap::parse_filter(inner), *ldap::parse_filter(outer));
}

TEST(FilterContainment, ReflexiveOnEquality) {
  EXPECT_TRUE(contained("(sn=Doe)", "(sn=Doe)"));
  EXPECT_TRUE(contained("(sn=Doe)", "(sn=DOE)"));  // matching rule
  EXPECT_FALSE(contained("(sn=Doe)", "(sn=Smith)"));
}

TEST(FilterContainment, EqualityInsidePresence) {
  EXPECT_TRUE(contained("(sn=Doe)", "(sn=*)"));
  EXPECT_FALSE(contained("(sn=*)", "(sn=Doe)"));
}

TEST(FilterContainment, EverythingInsideMatchAll) {
  // (objectclass=*) matches every entry (§2.2), so any filter is contained
  // in it — even one that never mentions objectclass.
  EXPECT_TRUE(contained("(sn=Doe)", "(objectclass=*)"));
  EXPECT_TRUE(contained("(&(sn=Doe)(age>=30))", "(objectclass=*)"));
  EXPECT_FALSE(contained("(objectclass=*)", "(sn=Doe)"));
}

TEST(FilterContainment, PresenceOfOptionalAttributeIsNotUniversal) {
  // (telephonenumber=*) does NOT contain (sn=Doe): an entry can have a sn
  // but no telephone number.
  EXPECT_FALSE(contained("(sn=Doe)", "(telephonenumber=*)"));
}

TEST(FilterContainment, RangeExample) {
  // Paper §3.4.2: query (age=X) can be answered by (age>=Y) if Y <= X.
  EXPECT_TRUE(contained("(age=30)", "(age>=18)"));
  EXPECT_TRUE(contained("(age=30)", "(age>=30)"));
  EXPECT_FALSE(contained("(age=30)", "(age>=31)"));
  EXPECT_TRUE(contained("(age=9)", "(age<=10)"));  // numeric comparison
}

TEST(FilterContainment, RangeInRange) {
  EXPECT_TRUE(contained("(age>=30)", "(age>=18)"));
  EXPECT_FALSE(contained("(age>=18)", "(age>=30)"));
  EXPECT_TRUE(contained("(age<=18)", "(age<=30)"));
  EXPECT_FALSE(contained("(age<=30)", "(age<=18)"));
}

TEST(FilterContainment, ConjunctionIsSmaller) {
  EXPECT_TRUE(contained("(&(sn=Doe)(givenname=John))", "(sn=Doe)"));
  EXPECT_FALSE(contained("(sn=Doe)", "(&(sn=Doe)(givenname=John))"));
}

TEST(FilterContainment, DisjunctionIsLarger) {
  EXPECT_TRUE(contained("(sn=Doe)", "(|(sn=Doe)(sn=Smith))"));
  EXPECT_FALSE(contained("(|(sn=Doe)(sn=Smith))", "(sn=Doe)"));
  EXPECT_TRUE(contained("(|(sn=Doe)(sn=Smith))", "(|(sn=Smith)(sn=Doe)(sn=X))"));
}

TEST(FilterContainment, PaperSection4Example) {
  // F1 = (a>=p)&(b>=q), F2 = (a=x)|(b>=y): contained iff q >= y.
  // Instantiate with integers: p=5, q=20, x=7, y=10 -> contained (20 >= 10).
  EXPECT_TRUE(contained("(&(age>=5)(roomnumber>=20))",
                        "(|(age=7)(roomnumber>=10))"));
  // q=5, y=10 -> not contained.
  EXPECT_FALSE(contained("(&(age>=5)(roomnumber>=5))",
                         "(|(age=7)(roomnumber>=10))"));
}

TEST(FilterContainment, DepartmentPrefixExample) {
  // §3.1.2: (&(objectclass=inetOrgPerson)(departmentnumber=2406)) is
  // answered by (&(objectclass=inetOrgPerson)(departmentnumber=240*)).
  EXPECT_TRUE(contained("(&(objectclass=inetOrgPerson)(departmentnumber=2406))",
                        "(&(objectclass=inetOrgPerson)(departmentnumber=240*))"));
  EXPECT_FALSE(contained("(&(objectclass=inetOrgPerson)(departmentnumber=2506))",
                         "(&(objectclass=inetOrgPerson)(departmentnumber=240*))"));
}

TEST(FilterContainment, SerialNumberPrefix) {
  EXPECT_TRUE(contained("(serialnumber=041234)", "(serialnumber=04*)"));
  EXPECT_TRUE(contained("(serialnumber=0412*)", "(serialnumber=04*)"));
  EXPECT_FALSE(contained("(serialnumber=04*)", "(serialnumber=0412*)"));
  EXPECT_FALSE(contained("(serialnumber=051234)", "(serialnumber=04*)"));
}

TEST(FilterContainment, MailSuffixPattern) {
  EXPECT_TRUE(contained("(mail=john@us.xyz.com)", "(mail=*@us.xyz.com)"));
  EXPECT_FALSE(contained("(mail=john@in.xyz.com)", "(mail=*@us.xyz.com)"));
  EXPECT_TRUE(contained("(mail=*@us.xyz.com)", "(mail=*xyz.com)"));
}

TEST(FilterContainment, RangeConjunctionSubsumption) {
  // Beyond Proposition 3: redundant predicates still decided correctly by
  // the general engine.
  EXPECT_TRUE(contained("(&(age>=5)(age>=3))", "(&(age>=1)(age>=4))"));
  EXPECT_FALSE(contained("(&(age>=5)(age>=3))", "(&(age>=1)(age>=6))"));
}

TEST(FilterContainment, BoundedIntervalInLargerInterval) {
  EXPECT_TRUE(contained("(&(age>=20)(age<=30))", "(&(age>=10)(age<=40))"));
  EXPECT_FALSE(contained("(&(age>=10)(age<=40))", "(&(age>=20)(age<=30))"));
}

TEST(FilterContainment, EmptyInnerContainedInAnything) {
  // (age>=30)&(age<=20) matches nothing, hence contained everywhere.
  EXPECT_TRUE(contained("(&(age>=30)(age<=20))", "(sn=Doe)"));
}

TEST(FilterContainment, NegationHandledViaDnf) {
  EXPECT_TRUE(contained("(sn=Doe)", "(!(sn=Smith))"));
  EXPECT_FALSE(contained("(sn=Doe)", "(!(sn=Doe))"));
  EXPECT_TRUE(contained("(&(sn=Doe)(!(c=us)))", "(sn=Doe)"));
  // (!(age<=20)) == (age>20): contains (age>=30).
  EXPECT_TRUE(contained("(age>=30)", "(!(age<=20))"));
  EXPECT_FALSE(contained("(age>=10)", "(!(age<=20))"));
}

TEST(FilterContainment, CrossAttributeNotContained) {
  EXPECT_FALSE(contained("(sn=Doe)", "(givenname=Doe)"));
}

TEST(FilterContainment, OrOfPrefixesCoversNarrowerPrefix) {
  EXPECT_TRUE(contained("(serialnumber=041*)",
                        "(|(serialnumber=04*)(serialnumber=05*))"));
  EXPECT_FALSE(contained("(serialnumber=061*)",
                         "(|(serialnumber=04*)(serialnumber=05*))"));
}

TEST(FilterContainment, DeMorganEquivalence) {
  // !(A|B) == !A & !B: the two forms contain each other.
  EXPECT_TRUE(contained("(!(|(sn=a)(sn=b)))", "(&(!(sn=a))(!(sn=b)))"));
  EXPECT_TRUE(contained("(&(!(sn=a))(!(sn=b)))", "(!(|(sn=a)(sn=b)))"));
}

// The Proposition 3 tests run the IR overloads ContainmentEngine calls, on
// interned filters; the AST oracle must give the same verdicts.

ldap::FilterIrPtr ir(const char* text) {
  return ldap::FilterInterner::for_schema(ldap::Schema::default_instance())
      .intern(ldap::parse_filter(text));
}

bool pred_contained(const char* inner, const char* outer) {
  const bool verdict = predicate_contained(*ir(inner), *ir(outer));
  EXPECT_EQ(oracles::predicate_contained(*ldap::parse_filter(inner),
                                         *ldap::parse_filter(outer)),
            verdict)
      << inner << " in " << outer;
  return verdict;
}

/// The IR walk's answer; where it answers, the general engine and the AST
/// oracle must agree with it.
std::optional<bool> walk(const char* inner, const char* outer) {
  const std::optional<bool> verdict = same_template_contained(*ir(inner), *ir(outer));
  if (verdict) {
    EXPECT_EQ(filter_contained(*ir(inner), *ir(outer)), *verdict)
        << inner << " in " << outer;
    EXPECT_EQ(oracles::same_template_contained(*ldap::parse_filter(inner),
                                               *ldap::parse_filter(outer)),
              *verdict)
        << inner << " in " << outer;
  }
  return verdict;
}

TEST(PredicateContained, DirectCases) {
  EXPECT_TRUE(pred_contained("(age=30)", "(age>=18)"));
  EXPECT_TRUE(pred_contained("(age>=30)", "(age>=18)"));
  EXPECT_FALSE(pred_contained("(age>=10)", "(age>=18)"));
  EXPECT_TRUE(pred_contained("(sn=doe)", "(sn=*)"));
  EXPECT_TRUE(pred_contained("(sn=doe)", "(sn=do*)"));
  EXPECT_TRUE(pred_contained("(sn=do*)", "(sn=d*)"));
  EXPECT_FALSE(pred_contained("(sn=do*)", "(cn=do*)"));
  // Prefix pattern inside a compatible range.
  EXPECT_TRUE(pred_contained("(sn=do*)", "(sn>=do)"));
  EXPECT_FALSE(pred_contained("(sn=do*)", "(sn>=dz)"));
}

TEST(SameTemplateContained, PairwisePredicateWalk) {
  // Proposition 3 walk on (&(dept=_)(div=_)).
  EXPECT_EQ(walk("(&(dept=2406)(div=sw))", "(&(dept=2406)(div=sw))"), true);
  EXPECT_EQ(walk("(&(dept=2406)(div=sw))", "(&(dept=2407)(div=sw))"), false);
  // Range template (age>=_).
  EXPECT_EQ(walk("(age>=30)", "(age>=18)"), true);
  EXPECT_EQ(walk("(age>=18)", "(age>=30)"), false);
  // Prefix template (serialnumber=_*).
  EXPECT_EQ(walk("(serialnumber=041*)", "(serialnumber=04*)"), true);
  // A structural mismatch is no answer: the caller falls back to
  // Proposition 1.
  EXPECT_EQ(walk("(sn=doe)", "(&(sn=doe)(cn=x))"), std::nullopt);
  EXPECT_FALSE(oracles::same_template_contained(
      *ldap::parse_filter("(sn=doe)"), *ldap::parse_filter("(&(sn=doe)(cn=x))")));
}

}  // namespace
}  // namespace fbdr::containment
