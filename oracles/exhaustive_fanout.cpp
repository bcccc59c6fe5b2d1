#include "oracles/exhaustive_fanout.h"

#include <stdexcept>

namespace fbdr::oracles {

ExhaustiveFanout::ExhaustiveFanout(const server::DirectoryServer& master)
    : master_(&master), last_pumped_seq_(master.journal().last_seq()) {}

ExhaustiveFanout::Opened ExhaustiveFanout::open(const ldap::Query& query,
                                                resync::Mode mode) {
  auto session = std::make_unique<QuerySession>(query, master_->schema());
  Opened opened;
  opened.id = next_id_++;
  opened.pdus = resync::to_pdus(session->initial(master_->dit()));
  sessions_.emplace(opened.id, Session{std::move(session), mode});
  return opened;
}

void ExhaustiveFanout::close(SessionId id) { sessions_.erase(id); }

std::map<ExhaustiveFanout::SessionId, std::vector<resync::EntryPdu>>
ExhaustiveFanout::pump() {
  const server::ChangeJournal& journal = master_->journal();
  if (journal.trimmed_up_to() > last_pumped_seq_) {
    throw std::logic_error("ExhaustiveFanout: journal compacted past the pump");
  }
  for (const server::ChangeRecord* record : journal.since(last_pumped_seq_)) {
    for (auto& [id, session] : sessions_) session.session->on_change(*record);
    last_pumped_seq_ = record->seq;
  }
  std::map<SessionId, std::vector<resync::EntryPdu>> pushed;
  for (auto& [id, session] : sessions_) {
    if (session.mode != resync::Mode::Persist) continue;
    const sync::UpdateBatch batch = session.session->poll();
    if (!batch.empty()) pushed.emplace(id, resync::to_pdus(batch));
  }
  return pushed;
}

std::vector<resync::EntryPdu> ExhaustiveFanout::poll(SessionId id) {
  return resync::to_pdus(sessions_.at(id).session->poll());
}

}  // namespace fbdr::oracles
