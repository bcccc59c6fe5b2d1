#pragma once

// Input generation shared by the workloads. Every input is derived from the
// benchmark seed before the timed phase; the library under test only ever
// sees the generated operations.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ldap/entry.h"
#include "server/change.h"
#include "server/directory_server.h"
#include "workload/directory_gen.h"
#include "workload/update_gen.h"

namespace perfbench {

/// An independent 64-bit seed for input stream `stream` of benchmark seed
/// `seed` (splitmix64), so adding a stream never shifts another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// A 32-bit seed for the library's generators, which take `unsigned`.
unsigned derive_seed32(std::uint64_t seed, std::uint64_t stream);

/// Records `count` master updates of workload::UpdateGenerator with `mix`
/// (its kind shares and seed) by running the generator against a private
/// copy of the directory built from `config`. Replaying the records in
/// order onto another directory built from the same config reproduces the
/// generator's journal exactly.
std::vector<fbdr::server::ChangeRecord> record_updates(
    const fbdr::workload::DirectoryConfig& config, std::size_t count,
    const fbdr::workload::UpdateConfig& mix);

/// Applies one recorded update to `master` through its public write API.
void replay(fbdr::server::DirectoryServer& master,
            const fbdr::server::ChangeRecord& record);

/// True when both lists hold the same entries (by DN and attributes),
/// regardless of order. `what` receives a short reason on mismatch.
bool same_entries(std::vector<fbdr::ldap::EntryPtr> got,
                  std::vector<fbdr::ldap::EntryPtr> want, std::string* what);

/// FNV-1a, folded incrementally over the generated inputs so two runs can
/// show they saw the same (or different) operations.
class InputHash {
 public:
  void add(const std::string& text);
  void add(std::uint64_t value);
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// `count` indices into [0, classes), each class appearing equally often
/// (up to rounding), in a seeded order. Balanced draws keep the mix of a
/// run identical across seeds, so per-class latencies do not shift the
/// percentiles from one seed to the next.
std::vector<std::size_t> balanced_sequence(std::size_t count, std::size_t classes,
                                           std::mt19937_64& rng);

}  // namespace perfbench
