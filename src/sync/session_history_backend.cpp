#include "sync/session_history_backend.h"

#include "ldap/error.h"

namespace fbdr::sync {

SessionHistoryBackend::SessionHistoryBackend(const server::Dit& master_dit,
                                             const ldap::Schema& schema)
    : dit_(&master_dit), schema_(&schema) {}

std::size_t SessionHistoryBackend::register_query(const ldap::Query& query) {
  Slot slot;
  slot.group = std::make_unique<FilterGroup>(query, *schema_);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

const ContentTracker& SessionHistoryBackend::tracker(std::size_t id) const {
  return slots_.at(id).group->tracker();
}

void SessionHistoryBackend::unregister_query(std::size_t id) {
  Slot& slot = slots_.at(id);
  if (slot.active && slot.initialized) slot.group->detach(slot.cursor);
  slot.active = false;
}

UpdateBatch SessionHistoryBackend::initial(std::size_t id) {
  Slot& slot = slots_.at(id);
  if (!slot.active) {
    throw ldap::ProtocolError("initial() on an unregistered query");
  }
  if (slot.initialized) slot.group->detach(slot.cursor);
  slot.group->initialize(*dit_);
  slot.group->attach(slot.cursor);
  slot.initialized = true;
  return slot.group->content_batch();
}

void SessionHistoryBackend::on_change(const server::ChangeRecord& record) {
  for (Slot& slot : slots_) {
    if (slot.active && slot.initialized) slot.group->on_change(record);
  }
}

UpdateBatch SessionHistoryBackend::poll(std::size_t id) {
  Slot& slot = slots_.at(id);
  if (!slot.active) {
    throw ldap::ProtocolError("poll() on an unregistered query");
  }
  if (!slot.initialized) return initial(id);
  return slot.group->poll(slot.cursor);
}

std::size_t SessionHistoryBackend::pending_events() const {
  std::size_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.active && slot.initialized) total += slot.group->units(slot.cursor);
  }
  return total;
}

}  // namespace fbdr::sync
