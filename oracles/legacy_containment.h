#pragma once

#include <cstddef>
#include <vector>

#include "containment/dnf.h"
#include "ldap/filter.h"
#include "ldap/schema.h"

namespace fbdr::oracles {

/// The pre-IR containment path over the raw Filter AST. Every assertion
/// value is normalized inline on every call. Production decides containment
/// over canonical IR (containment::to_dnf, filter_contained,
/// same_template_contained); these walkers are the reference the
/// equivalence suites check it against and the baseline bench_containment
/// times it against. They use only the public containment API.

/// DNF expansion of the raw AST (negated when `negated`), with the rules of
/// containment::to_dnf. Throws containment::DnfLimitExceeded past
/// `max_conjuncts`.
std::vector<containment::Conjunct> legacy_to_dnf(
    const ldap::Filter& filter, bool negated, const ldap::Schema& schema,
    std::size_t max_conjuncts = 4096);

/// Proposition 1 over legacy_to_dnf: `inner` is contained in `outer` iff
/// every conjunct of inner AND NOT outer is inconsistent. False when the
/// expansion exceeds `max_conjuncts`.
bool filter_contained_legacy(
    const ldap::Filter& inner, const ldap::Filter& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance(),
    std::size_t max_conjuncts = 4096);

/// Predicate-in-predicate containment over one attribute, normalizing inline
/// (the AST twin of the IR containment::predicate_contained).
bool predicate_contained(
    const ldap::Filter& inner, const ldap::Filter& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance());

/// Proposition 3 lockstep walk over the raw trees; false on a structural
/// mismatch (the IR walk answers nullopt there instead).
bool same_template_contained(
    const ldap::Filter& inner, const ldap::Filter& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance());

}  // namespace fbdr::oracles
