#include "sync/content_tracker.h"

namespace fbdr::sync {

using ldap::Dn;
using ldap::Entry;
using ldap::EntryPtr;
using ldap::Scope;
using server::ChangeRecord;
using server::ChangeType;

std::string to_string(Transition transition) {
  switch (transition) {
    case Transition::Enter:
      return "enter";
    case Transition::Leave:
      return "leave";
    case Transition::Update:
      return "update";
  }
  return "unknown";
}

ContentTracker::ContentTracker(ldap::Query query, const ldap::Schema& schema)
    : query_(std::move(query)),
      ir_(ldap::FilterInterner::for_schema(schema).intern(query_.filter)),
      compiled_(ldap::CompiledFilter::compile(
          ir_, ldap::FilterInterner::for_schema(schema))) {}

bool ContentTracker::in_region(const Dn& dn) const {
  switch (query_.scope) {
    case Scope::Base:
      return dn == query_.base;
    case Scope::OneLevel:
      return query_.base.is_parent_of(dn);
    case Scope::Subtree:
      return query_.base.is_ancestor_or_self(dn);
  }
  return false;
}

bool ContentTracker::matches_query(const Entry& entry) const {
  return in_region(entry.dn()) && compiled_.matches(entry);
}

bool ContentTracker::matches_query(const EntryPtr& entry,
                                   ldap::NormalizedValueCache* cache) const {
  return in_region(entry->dn()) && compiled_.matches(entry, cache);
}

void ContentTracker::initialize(const server::Dit& dit) {
  content_.clear();
  digest_.clear();
  dit.for_each([&](const EntryPtr& entry) {
    if (matches_query(*entry)) {
      const std::string key = entry->dn().norm_key();
      content_[key] = entry;
      digest_.upsert(key, *entry);
    }
  });
}

ContentEvent ContentTracker::enter(std::uint64_t seq, const Dn& dn,
                                   const EntryPtr& after) {
  // A tracker initialized from a DIT that already reflects an unpumped
  // record sees that record's target in content: the record then updates
  // the entry rather than entering it, so Enter always means "was outside".
  const std::string& key = dn.norm_key();
  const bool entered = content_.insert_or_assign(key, after).second;
  digest_.upsert(key, *after);
  return {seq, entered ? Transition::Enter : Transition::Update, dn, after};
}

bool ContentTracker::in_content(const Dn& dn) const {
  return content_.count(dn.norm_key()) > 0;
}

std::vector<std::string> ContentTracker::content_keys() const {
  std::vector<std::string> keys;
  keys.reserve(content_.size());
  for (const auto& [key, entry] : content_) keys.push_back(key);
  return keys;
}

void ContentTracker::leave(std::uint64_t seq, const Dn& dn,
                           std::vector<ContentEvent>& events) {
  if (content_.erase(dn.norm_key()) == 0) return;
  digest_.erase(dn.norm_key());
  events.push_back({seq, Transition::Leave, dn, nullptr});
}

std::vector<ContentEvent> ContentTracker::on_change(
    const ChangeRecord& record, ldap::NormalizedValueCache* cache) {
  std::vector<ContentEvent> events;
  const bool now_in = record.type != ChangeType::Delete && record.after &&
                      matches_query(record.after, cache);
  switch (record.type) {
    case ChangeType::Add:
      if (now_in) events.push_back(enter(record.seq, record.dn, record.after));
      break;
    case ChangeType::Modify:
      // In content afterwards: Enter, or Update when it already was.
      if (now_in) {
        events.push_back(enter(record.seq, record.dn, record.after));
      } else {
        leave(record.seq, record.dn, events);
      }
      break;
    case ChangeType::Delete:
      leave(record.seq, record.dn, events);
      break;
    case ChangeType::ModifyDn:
      leave(record.seq, record.dn, events);
      if (now_in) events.push_back(enter(record.seq, record.new_dn, record.after));
      break;
  }
  return events;
}

}  // namespace fbdr::sync
