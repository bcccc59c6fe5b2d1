#pragma once

#include "ldap/entry.h"
#include "ldap/filter.h"
#include "ldap/schema.h"

namespace fbdr::oracles {

/// The AST filter evaluator: walks the parse-level Filter tree and
/// normalizes every value inline. Production evaluates through
/// ldap::CompiledFilter; this walker is the independent reference the
/// equivalence suites check it against.
///
/// Evaluates `filter` against `entry` under the matching rules of `schema`.
///
/// Semantics follow RFC 2251/2254 three-valued logic collapsed to two values:
/// a predicate on an absent attribute is false (Undefined treated as
/// non-match), NOT inverts, AND/OR are conjunction/disjunction.
bool matches(const ldap::Filter& filter, const ldap::Entry& entry,
             const ldap::Schema& schema = ldap::Schema::default_instance());

/// Evaluates a single predicate node (precondition: filter.is_predicate()).
bool matches_predicate(const ldap::Filter& predicate, const ldap::Entry& entry,
                       const ldap::Schema& schema = ldap::Schema::default_instance());

}  // namespace fbdr::oracles
