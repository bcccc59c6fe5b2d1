#include "inputs.h"

#include <algorithm>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

unsigned derive_seed32(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<unsigned>(derive_seed(seed, stream) >> 32);
}

std::vector<fbdr::server::ChangeRecord> record_updates(
    const fbdr::workload::DirectoryConfig& config, std::size_t count,
    const fbdr::workload::UpdateConfig& mix) {
  fbdr::workload::EnterpriseDirectory shadow =
      fbdr::workload::generate_directory(config);
  fbdr::workload::UpdateGenerator generator(shadow, mix);
  const std::uint64_t first = shadow.master->journal().last_seq() + 1;
  generator.apply(count);
  std::vector<fbdr::server::ChangeRecord> records;
  for (const fbdr::server::ChangeRecord* record :
       shadow.master->journal().since(first - 1)) {
    records.push_back(*record);
  }
  return records;
}

void replay(fbdr::server::DirectoryServer& master,
            const fbdr::server::ChangeRecord& record) {
  using fbdr::server::ChangeType;
  switch (record.type) {
    case ChangeType::Add:
      master.add(record.after);
      break;
    case ChangeType::Delete:
      master.remove(record.dn);
      break;
    case ChangeType::Modify:
      master.modify(record.dn, record.mods);
      break;
    case ChangeType::ModifyDn:
      master.modify_dn(record.dn, record.new_dn);
      break;
  }
}

bool same_entries(std::vector<fbdr::ldap::EntryPtr> got,
                  std::vector<fbdr::ldap::EntryPtr> want, std::string* what) {
  const auto by_key = [](const fbdr::ldap::EntryPtr& a,
                         const fbdr::ldap::EntryPtr& b) {
    return a->dn().norm_key() < b->dn().norm_key();
  };
  std::sort(got.begin(), got.end(), by_key);
  std::sort(want.begin(), want.end(), by_key);
  if (got.size() != want.size()) {
    if (what != nullptr) {
      *what = "entry count " + std::to_string(got.size()) + " != expected " +
              std::to_string(want.size());
    }
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(*got[i] == *want[i])) {
      if (what != nullptr) *what = "entry differs: " + want[i]->dn().to_string();
      return false;
    }
  }
  return true;
}

void InputHash::add(const std::string& text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
  hash_ ^= 0xff;
  hash_ *= 1099511628211ull;
}

void InputHash::add(std::uint64_t value) { add(std::to_string(value)); }

std::vector<std::size_t> balanced_sequence(std::size_t count, std::size_t classes,
                                           std::mt19937_64& rng) {
  std::vector<std::size_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = i % classes;
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

}  // namespace perfbench
