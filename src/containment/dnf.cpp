#include "containment/dnf.h"

#include "containment/pattern.h"
#include "ldap/error.h"

namespace fbdr::containment {

using ldap::Filter;
using ldap::FilterInterner;
using ldap::FilterIr;
using ldap::FilterIrPtr;
using ldap::FilterKind;
using ldap::RangeFacet;
using ldap::Schema;
using ldap::SubstringPattern;
using ldap::Syntax;

namespace {

/// True when prefix-substring predicates on this attribute can be translated
/// into lexicographic ranges (integer ordering is numeric, which does not
/// agree with prefix order, so integers keep patterns opaque).
bool prefix_ranges_valid(std::string_view attr, const Schema& schema) {
  return schema.syntax_of(attr) != Syntax::Integer;
}

void add_range(Conjunct& conjunct, const std::string& attr, ValueRange range,
               const Schema& schema) {
  AttrConstraints& c = conjunct[attr];
  c.range = c.range.intersect(range, ValueOrder(schema, attr));
  c.has_range = true;
}

void add_pattern(Conjunct& conjunct, const std::string& attr,
                 SubstringPattern pattern) {
  conjunct[attr].patterns.push_back(std::move(pattern));
}

void add_not_pattern(Conjunct& conjunct, const std::string& attr,
                     SubstringPattern pattern) {
  conjunct[attr].not_patterns.push_back(std::move(pattern));
}

Conjunct single(const std::string& attr, AttrConstraints constraints) {
  Conjunct c;
  c[attr] = std::move(constraints);
  return c;
}

/// DNF of one canonical-IR predicate (possibly negated). Values and
/// patterns come pre-normalized off the node; the range facet replaces the
/// prefix-translatability re-derivation.
std::vector<Conjunct> predicate_dnf(const FilterIr& p, bool negated,
                                    const Schema& schema) {
  const std::string& attr = p.attribute();
  std::vector<Conjunct> out;

  switch (p.kind()) {
    case FilterKind::Present: {
      AttrConstraints c;
      if (!negated) {
        c.present = true;
      } else {
        c.absent = true;
      }
      out.push_back(single(attr, std::move(c)));
      return out;
    }
    case FilterKind::Equality: {
      const std::string& v = p.norm_value();
      if (!negated) {
        Conjunct c;
        add_range(c, attr, ValueRange::point(v), schema);
        out.push_back(std::move(c));
      } else {
        AttrConstraints absent;
        absent.absent = true;
        out.push_back(single(attr, std::move(absent)));
        Conjunct below;
        add_range(below, attr, ValueRange::less_than(v), schema);
        out.push_back(std::move(below));
        Conjunct above;
        add_range(above, attr, ValueRange::greater_than(v), schema);
        out.push_back(std::move(above));
      }
      return out;
    }
    case FilterKind::GreaterEq:
    case FilterKind::LessEq: {
      const std::string& v = p.norm_value();
      const bool ge = p.kind() == FilterKind::GreaterEq;
      if (!negated) {
        Conjunct c;
        add_range(c, attr, ge ? ValueRange::at_least(v) : ValueRange::at_most(v),
                  schema);
        out.push_back(std::move(c));
      } else {
        AttrConstraints absent;
        absent.absent = true;
        out.push_back(single(attr, std::move(absent)));
        Conjunct complement;
        add_range(complement, attr,
                  ge ? ValueRange::less_than(v) : ValueRange::greater_than(v),
                  schema);
        out.push_back(std::move(complement));
      }
      return out;
    }
    case FilterKind::Substring: {
      const SubstringPattern& pattern = p.pattern();
      const bool prefix_only = p.range_facet() == RangeFacet::Prefix;
      if (!negated) {
        Conjunct c;
        add_pattern(c, attr, pattern);
        if (!pattern.initial.empty() && prefix_ranges_valid(attr, schema)) {
          // Range refinement: a value matching "p*..." lies in prefix(p).
          add_range(c, attr, ValueRange::prefix(pattern.initial), schema);
        }
        out.push_back(std::move(c));
      } else {
        AttrConstraints absent;
        absent.absent = true;
        out.push_back(single(attr, std::move(absent)));
        if (prefix_only) {
          Conjunct below;
          add_range(below, attr, ValueRange::less_than(pattern.initial), schema);
          out.push_back(std::move(below));
          if (auto upper = prefix_upper_bound(pattern.initial)) {
            Conjunct above;
            add_range(above, attr, ValueRange::at_least(*upper), schema);
            out.push_back(std::move(above));
          }
        } else {
          Conjunct np;
          add_not_pattern(np, attr, pattern);
          out.push_back(std::move(np));
        }
      }
      return out;
    }
    case FilterKind::And:
    case FilterKind::Or:
    case FilterKind::Not:
      throw ldap::OperationError(ldap::ResultCode::OperationsError,
                                 "predicate_dnf called on composite node");
  }
  return out;
}

std::vector<Conjunct> cross_product(const std::vector<std::vector<Conjunct>>& parts,
                                    const Schema& schema,
                                    std::size_t max_conjuncts) {
  std::vector<Conjunct> result{Conjunct{}};
  for (const std::vector<Conjunct>& part : parts) {
    std::vector<Conjunct> next;
    if (result.size() * part.size() > max_conjuncts) {
      throw DnfLimitExceeded(max_conjuncts);
    }
    next.reserve(result.size() * part.size());
    for (const Conjunct& a : result) {
      for (const Conjunct& b : part) {
        next.push_back(merge_conjuncts(a, b, schema));
      }
    }
    result = std::move(next);
  }
  return result;
}

}  // namespace

Conjunct merge_conjuncts(const Conjunct& a, const Conjunct& b,
                         const Schema& schema) {
  Conjunct out = a;
  for (const auto& [attr, cb] : b) {
    auto [it, inserted] = out.try_emplace(attr, cb);
    if (inserted) continue;
    AttrConstraints& ca = it->second;
    ca.range = ca.range.intersect(cb.range, ValueOrder(schema, attr));
    ca.has_range = ca.has_range || cb.has_range;
    ca.present = ca.present || cb.present;
    ca.absent = ca.absent || cb.absent;
    ca.patterns.insert(ca.patterns.end(), cb.patterns.begin(), cb.patterns.end());
    ca.not_patterns.insert(ca.not_patterns.end(), cb.not_patterns.begin(),
                           cb.not_patterns.end());
  }
  return out;
}

std::vector<Conjunct> to_dnf(const FilterIr& filter, bool negated,
                             const Schema& schema, std::size_t max_conjuncts) {
  switch (filter.kind()) {
    case FilterKind::Not:
      return to_dnf(*filter.children().front(), !negated, schema, max_conjuncts);
    case FilterKind::And:
    case FilterKind::Or: {
      const bool conjunctive = (filter.kind() == FilterKind::And) != negated;
      if (conjunctive) {
        std::vector<std::vector<Conjunct>> parts;
        parts.reserve(filter.children().size());
        for (const FilterIrPtr& child : filter.children()) {
          parts.push_back(to_dnf(*child, negated, schema, max_conjuncts));
        }
        return cross_product(parts, schema, max_conjuncts);
      }
      std::vector<Conjunct> out;
      for (const FilterIrPtr& child : filter.children()) {
        std::vector<Conjunct> part = to_dnf(*child, negated, schema, max_conjuncts);
        if (out.size() + part.size() > max_conjuncts) {
          throw DnfLimitExceeded(max_conjuncts);
        }
        out.insert(out.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      return out;
    }
    default:
      return predicate_dnf(filter, negated, schema);
  }
}

std::vector<Conjunct> to_dnf(const Filter& filter, bool negated,
                             const Schema& schema, std::size_t max_conjuncts) {
  const FilterIrPtr ir = FilterInterner::for_schema(schema).intern(filter);
  return to_dnf(*ir, negated, schema, max_conjuncts);
}

bool conjunct_inconsistent(const Conjunct& conjunct, const Schema& schema) {
  for (const auto& [attr, c] : conjunct) {
    const ValueOrder order(schema, attr);
    if (c.absent) {
      if (c.implies_present()) return true;
      // A required attribute (objectclass) is never absent.
      const ldap::AttributeType* type = schema.find(attr);
      if (type && type->required) return true;
    }
    if (c.has_range && c.range.empty(order)) return true;
    // A range pinned to a single point interacts with substring assertions.
    if (c.has_range) {
      if (const auto point = c.range.single_value(order)) {
        for (const SubstringPattern& p : c.patterns) {
          if (!p.matches(*point)) return true;
        }
        for (const SubstringPattern& np : c.not_patterns) {
          if (np.matches(*point)) return true;
        }
      }
    }
    // A positive pattern wholly inside a negated pattern is impossible.
    for (const SubstringPattern& p : c.patterns) {
      for (const SubstringPattern& np : c.not_patterns) {
        if (pattern_contained(p, np)) return true;
      }
    }
  }
  return false;
}

}  // namespace fbdr::containment
