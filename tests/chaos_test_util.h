// Shared by the seeded chaos suites: the master-side truth a converged
// replica must hold, and a PrintTo that names a FaultConfig by its non-zero
// knobs, so schedule parameters print as stable text instead of raw struct
// bytes (whose padding would change the ctest names between discoveries).
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "net/fault_injector.h"
#include "server/directory_server.h"
#include "sync/content_tracker.h"

namespace fbdr::net {

inline void PrintTo(const FaultConfig& config, std::ostream* os) {
  const std::pair<const char*, double> knobs[] = {
      {"drop_req", config.drop_request}, {"drop_resp", config.drop_response},
      {"dup", config.duplicate},         {"reorder", config.reorder},
      {"reset", config.reset},           {"delay", config.delay},
      {"outage", config.outage},         {"corrupt", config.corrupt},
      {"truncate", config.truncate}};
  for (const auto& [name, probability] : knobs) {
    if (probability > 0.0) *os << ' ' << name << '=' << probability;
  }
}

}  // namespace fbdr::net

namespace fbdr {

inline std::vector<std::string> master_truth(
    const server::DirectoryServer& master, const ldap::Query& query) {
  sync::ContentTracker tracker(query);
  tracker.initialize(master.dit());
  return tracker.content_keys();
}

}  // namespace fbdr
