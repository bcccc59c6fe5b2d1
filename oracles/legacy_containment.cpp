#include "oracles/legacy_containment.h"

#include <iterator>
#include <string>

#include "containment/pattern.h"
#include "containment/value_range.h"
#include "ldap/error.h"

namespace fbdr::oracles {

using containment::AttrConstraints;
using containment::Conjunct;
using containment::DnfLimitExceeded;
using containment::ValueOrder;
using containment::ValueRange;
using ldap::Filter;
using ldap::FilterKind;
using ldap::Schema;
using ldap::SubstringPattern;

namespace {

/// Prefix patterns translate to lexicographic ranges except under integer
/// ordering, which is numeric and disagrees with prefix order.
bool prefix_ranges_valid(const std::string& attr, const Schema& schema) {
  return schema.syntax_of(attr) != ldap::Syntax::Integer;
}

Conjunct range_conjunct(const std::string& attr, const ValueRange& range,
                        const Schema& schema) {
  AttrConstraints c;
  c.range = ValueRange::all().intersect(range, ValueOrder(schema, attr));
  c.has_range = true;
  return Conjunct{{attr, std::move(c)}};
}

Conjunct absent_conjunct(const std::string& attr) {
  AttrConstraints c;
  c.absent = true;
  return Conjunct{{attr, std::move(c)}};
}

/// DNF of one raw-AST predicate (possibly negated), normalizing inline.
std::vector<Conjunct> legacy_predicate_dnf(const Filter& p, bool negated,
                                           const Schema& schema) {
  const std::string& attr = p.attribute();
  switch (p.kind()) {
    case FilterKind::Present: {
      AttrConstraints c;
      (negated ? c.absent : c.present) = true;
      return {Conjunct{{attr, std::move(c)}}};
    }
    case FilterKind::Equality: {
      const std::string v = schema.normalize(attr, p.value());
      if (!negated) return {range_conjunct(attr, ValueRange::point(v), schema)};
      return {absent_conjunct(attr),
              range_conjunct(attr, ValueRange::less_than(v), schema),
              range_conjunct(attr, ValueRange::greater_than(v), schema)};
    }
    case FilterKind::GreaterEq:
    case FilterKind::LessEq: {
      const std::string v = schema.normalize(attr, p.value());
      const bool ge = p.kind() == FilterKind::GreaterEq;
      if (!negated) {
        return {range_conjunct(
            attr, ge ? ValueRange::at_least(v) : ValueRange::at_most(v), schema)};
      }
      return {absent_conjunct(attr),
              range_conjunct(attr,
                             ge ? ValueRange::less_than(v)
                                : ValueRange::greater_than(v),
                             schema)};
    }
    case FilterKind::Substring: {
      const SubstringPattern pattern =
          containment::normalize_pattern(p.substrings(), attr, schema);
      const bool ranges = prefix_ranges_valid(attr, schema);
      if (!negated) {
        Conjunct c;
        if (!pattern.initial.empty() && ranges) {
          // Range refinement: a value matching "p*..." lies in prefix(p).
          c = range_conjunct(attr, ValueRange::prefix(pattern.initial), schema);
        }
        c[attr].patterns.push_back(pattern);
        return {std::move(c)};
      }
      std::vector<Conjunct> out{absent_conjunct(attr)};
      if (pattern.is_prefix_only() && ranges) {
        out.push_back(range_conjunct(
            attr, ValueRange::less_than(pattern.initial), schema));
        if (auto upper = containment::prefix_upper_bound(pattern.initial)) {
          out.push_back(
              range_conjunct(attr, ValueRange::at_least(*upper), schema));
        }
      } else {
        Conjunct np;
        np[attr].not_patterns.push_back(pattern);
        out.push_back(std::move(np));
      }
      return out;
    }
    case FilterKind::And:
    case FilterKind::Or:
    case FilterKind::Not:
      break;
  }
  throw ldap::OperationError(ldap::ResultCode::OperationsError,
                             "legacy_predicate_dnf called on composite node");
}

}  // namespace

std::vector<Conjunct> legacy_to_dnf(const Filter& filter, bool negated,
                                    const Schema& schema,
                                    std::size_t max_conjuncts) {
  if (filter.kind() == FilterKind::Not) {
    return legacy_to_dnf(*filter.children().front(), !negated, schema,
                         max_conjuncts);
  }
  if (filter.is_predicate()) return legacy_predicate_dnf(filter, negated, schema);

  std::vector<Conjunct> out;
  const bool conjunctive = (filter.kind() == FilterKind::And) != negated;
  if (!conjunctive) {
    for (const ldap::FilterPtr& child : filter.children()) {
      std::vector<Conjunct> part =
          legacy_to_dnf(*child, negated, schema, max_conjuncts);
      if (out.size() + part.size() > max_conjuncts) {
        throw DnfLimitExceeded(max_conjuncts);
      }
      out.insert(out.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    return out;
  }
  // Conjunction: the cross product of the children's expansions.
  out.emplace_back();
  for (const ldap::FilterPtr& child : filter.children()) {
    const std::vector<Conjunct> part =
        legacy_to_dnf(*child, negated, schema, max_conjuncts);
    if (out.size() * part.size() > max_conjuncts) {
      throw DnfLimitExceeded(max_conjuncts);
    }
    std::vector<Conjunct> next;
    next.reserve(out.size() * part.size());
    for (const Conjunct& a : out) {
      for (const Conjunct& b : part) {
        next.push_back(containment::merge_conjuncts(a, b, schema));
      }
    }
    out = std::move(next);
  }
  return out;
}

bool filter_contained_legacy(const Filter& inner, const Filter& outer,
                             const Schema& schema, std::size_t max_conjuncts) {
  try {
    const std::vector<Conjunct> dnf_inner =
        legacy_to_dnf(inner, /*negated=*/false, schema, max_conjuncts);
    const std::vector<Conjunct> dnf_not_outer =
        legacy_to_dnf(outer, /*negated=*/true, schema, max_conjuncts);
    for (const Conjunct& a : dnf_inner) {
      for (const Conjunct& b : dnf_not_outer) {
        if (!containment::conjunct_inconsistent(
                containment::merge_conjuncts(a, b, schema), schema)) {
          return false;
        }
      }
    }
    return true;
  } catch (const DnfLimitExceeded&) {
    return false;
  }
}

bool predicate_contained(const Filter& inner, const Filter& outer,
                         const Schema& schema) {
  if (!inner.is_predicate() || !outer.is_predicate()) return false;
  if (inner.attribute() != outer.attribute()) return false;
  const std::string& attr = inner.attribute();
  const ValueOrder order(schema, attr);

  // Everything (with the attribute present) is contained in a presence test.
  if (outer.kind() == FilterKind::Present) return true;
  if (inner.kind() == FilterKind::Present) return false;

  auto norm = [&](const std::string& v) { return schema.normalize(attr, v); };

  switch (outer.kind()) {
    case FilterKind::Equality:
      // Only an equality with the same value is inside a point.
      return inner.kind() == FilterKind::Equality &&
             schema.equals(attr, inner.value(), outer.value());
    case FilterKind::GreaterEq:
    case FilterKind::LessEq: {
      const ValueRange outer_range =
          outer.kind() == FilterKind::GreaterEq
              ? ValueRange::at_least(norm(outer.value()))
              : ValueRange::at_most(norm(outer.value()));
      switch (inner.kind()) {
        case FilterKind::Equality:
          return outer_range.contains_value(norm(inner.value()), order);
        case FilterKind::GreaterEq:
          return outer_range.contains_range(
              ValueRange::at_least(norm(inner.value())), order);
        case FilterKind::LessEq:
          return outer_range.contains_range(
              ValueRange::at_most(norm(inner.value())), order);
        case FilterKind::Substring: {
          // A prefix pattern lies in a range iff its prefix interval does
          // (string syntaxes only).
          const SubstringPattern p =
              containment::normalize_pattern(inner.substrings(), attr, schema);
          if (p.is_prefix_only() && prefix_ranges_valid(attr, schema)) {
            return outer_range.contains_range(ValueRange::prefix(p.initial),
                                              order);
          }
          return false;
        }
        default:
          return false;
      }
    }
    case FilterKind::Substring: {
      const SubstringPattern outer_p =
          containment::normalize_pattern(outer.substrings(), attr, schema);
      if (inner.kind() == FilterKind::Equality) {
        return outer_p.matches(norm(inner.value()));
      }
      if (inner.kind() == FilterKind::Substring) {
        return containment::pattern_contained(
            containment::normalize_pattern(inner.substrings(), attr, schema),
            outer_p);
      }
      return false;
    }
    default:
      return false;
  }
}

bool same_template_contained(const Filter& inner, const Filter& outer,
                             const Schema& schema) {
  if (inner.kind() != outer.kind()) return false;
  if (!inner.is_composite()) return predicate_contained(inner, outer, schema);
  if (inner.kind() == FilterKind::Not) return false;  // positive filters only
  if (inner.children().size() != outer.children().size()) return false;
  for (std::size_t i = 0; i < inner.children().size(); ++i) {
    if (!same_template_contained(*inner.children()[i], *outer.children()[i],
                                 schema)) {
      return false;
    }
  }
  return true;
}

}  // namespace fbdr::oracles
