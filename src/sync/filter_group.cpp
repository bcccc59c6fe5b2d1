#include "sync/filter_group.h"

#include <algorithm>

namespace fbdr::sync {

FilterGroup::FilterGroup(ldap::Query query, const ldap::Schema& schema)
    : tracker_(std::move(query), schema) {}

std::string FilterGroup::key_of(const ldap::Query& query,
                                const ldap::Schema& schema) {
  const ldap::FilterIrPtr ir =
      ldap::FilterInterner::for_schema(schema).intern(query.filter);
  return query.base.norm_key() + "|" +
         std::to_string(static_cast<int>(query.scope)) + "|" +
         (ir ? ir->key() : "") + "|" + query.attrs.to_string();
}

void FilterGroup::initialize(const server::Dit& dit) {
  tracker_.initialize(dit);
  base_ = end();
  log_.clear();
  head_ = 0;
}

void FilterGroup::attach(GroupCursor& cursor) {
  // A walk's cursor starts off the log: a walk whose round 2 never comes
  // pins no events while it waits to expire.
  cursor = GroupCursor{end(), {}, {}, {}, !cursor.governed, false,
                       cursor.governed};
  ++cursors_;
  account(cursor, true);
}

void FilterGroup::detach(GroupCursor& cursor) {
  account(cursor, false);
  --cursors_;
  trim();
}

void FilterGroup::account(GroupCursor& cursor, bool add) {
  if (!cursor.degraded) {
    if (add) {
      ++positions_[cursor.pos];
    } else {
      const auto it = positions_.find(cursor.pos);
      if (--it->second == 0) positions_.erase(it);
    }
  } else if (add) {
    off_log_.push_back(&cursor);
  } else {
    off_log_.erase(std::find(off_log_.begin(), off_log_.end(), &cursor));
  }
  if (!cursor.governed) return;
  if (!cursor.degraded) {
    complete_ = add ? complete_ + 1 : complete_ - 1;
    pos_sum_ = add ? pos_sum_ + cursor.pos : pos_sum_ - cursor.pos;
  } else {
    const std::size_t keys = cursor.touched.size();
    touched_ = add ? touched_ + keys : touched_ - keys;
  }
}

UpdateBatch FilterGroup::content_batch() const {
  UpdateBatch batch;
  batch.full_reload = true;
  for (const auto& [key, entry] : tracker_.content()) batch.adds.push_back(entry);
  return batch;
}

void FilterGroup::log(const std::vector<ContentEvent>& events) {
  if (positions_.empty()) {
    base_ += events.size();  // no cursor on the log: nothing to keep
  } else {
    log_.insert(log_.end(), events.begin(), events.end());
  }
  for (GroupCursor* cursor : off_log_) {
    for (const ContentEvent& event : events) {
      if (note(*cursor, event) && cursor->governed) ++touched_;
    }
  }
}

bool FilterGroup::note(GroupCursor& view, const ContentEvent& event) {
  const std::string& key = event.dn.norm_key();
  // The tracker enters only keys outside the content and drops only keys
  // inside it, so the view difference follows each event exactly.
  if (event.transition == Transition::Enter) {
    if (view.left.erase(key) == 0) view.entered.insert(key);
  } else if (event.transition == Transition::Leave) {
    if (view.entered.erase(key) == 0) view.left.emplace(key, event.dn);
  }
  return !view.collapsed && view.touched.insert(key).second;
}

std::vector<ContentEvent> FilterGroup::on_change(
    const server::ChangeRecord& record, ldap::NormalizedValueCache* cache) {
  std::vector<ContentEvent> events = tracker_.on_change(record, cache);
  if (!events.empty()) log(events);
  return events;
}

std::vector<ContentEvent> FilterGroup::rebase(const server::Dit& dit) {
  std::map<std::string, ldap::EntryPtr> old_content = tracker_.content();
  tracker_.initialize(dit);
  std::vector<ContentEvent> events;
  for (const auto& [key, entry] : tracker_.content()) {
    const auto it = old_content.find(key);
    if (it == old_content.end()) {
      events.push_back({0, Transition::Enter, entry->dn(), entry});
      continue;
    }
    if (!(*it->second == *entry)) {
      events.push_back({0, Transition::Update, entry->dn(), entry});
    }
    old_content.erase(it);
  }
  for (const auto& [key, entry] : old_content) {
    events.push_back({0, Transition::Leave, entry->dn(), nullptr});
  }
  log(events);
  return events;
}

void FilterGroup::replay(std::uint64_t pos, GroupCursor& view) const {
  for (std::size_t i = head_ + static_cast<std::size_t>(pos - base_);
       i < log_.size(); ++i) {
    note(view, log_[i]);
  }
}

void FilterGroup::delta(const GroupCursor& view,
                        const std::set<std::uint32_t>& skip,
                        UpdateBatch& batch) const {
  const std::map<std::string, ldap::EntryPtr>& content = tracker_.content();
  for (const std::string& key : view.touched) {
    if (!skip.empty() && skip.count(ContentDigest::bucket_of(key)) != 0) {
      continue;
    }
    const auto it = content.find(key);
    const auto gone = view.left.find(key);
    if (it != content.end()) {
      (view.entered.count(key) != 0 ? batch.adds : batch.mods)
          .push_back(it->second);  // E01 / E11
    } else if (gone != view.left.end()) {
      batch.deletes.push_back(gone->second);  // E10
    }
    // entered and left again since the view: nothing to send.
  }
}

void FilterGroup::advance(GroupCursor& cursor) {
  if (!cursor.degraded && cursor.pos == end()) return;
  account(cursor, false);
  cursor.touched.clear();
  cursor.entered.clear();
  cursor.left.clear();
  cursor.degraded = false;
  cursor.collapsed = false;
  cursor.pos = end();
  account(cursor, true);
  trim();
}

void FilterGroup::trim() {
  const std::uint64_t floor =
      positions_.empty() ? end() : positions_.begin()->first;
  head_ += static_cast<std::size_t>(floor - base_);
  base_ = floor;
  if (head_ == log_.size()) {
    log_.clear();
    head_ = 0;
  } else if (head_ * 2 >= log_.size()) {
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

UpdateBatch FilterGroup::poll(GroupCursor& cursor) {
  // A degraded cursor has no usable event history — only the retain path
  // answers it exactly.
  if (cursor.degraded) return poll_with_retains(cursor);
  GroupCursor view;
  replay(cursor.pos, view);
  UpdateBatch batch;
  delta(view, {}, batch);
  advance(cursor);
  return batch;
}

UpdateBatch FilterGroup::poll_with_retains(GroupCursor& cursor) {
  degrade(cursor);
  // The DNs with events since the view are exactly the touched ones; an
  // untouched content entry was already in the view.
  UpdateBatch batch;
  batch.complete_enumeration = true;
  for (const auto& [key, entry] : tracker_.content()) {
    if (cursor.entered.count(key) != 0) {
      batch.adds.push_back(entry);  // E01
    } else if (cursor.collapsed || cursor.touched.count(key) != 0) {
      batch.mods.push_back(entry);  // E11 (or unknown change under collapse)
    } else {
      batch.retains.push_back(entry->dn());  // Eun
    }
  }
  // The enumeration re-established the replica's exact view: heal.
  advance(cursor);
  return batch;
}

UpdateBatch FilterGroup::diff_batch(
    GroupCursor& cursor, const std::vector<EntryFingerprint>& fingerprints,
    const std::vector<std::uint32_t>& buckets) {
  degrade(cursor);
  const std::set<std::uint32_t> wanted(buckets.begin(), buckets.end());
  std::map<std::string, const EntryFingerprint*> offered;
  for (const EntryFingerprint& fp : fingerprints) {
    offered[fp.dn.norm_key()] = &fp;
  }
  UpdateBatch batch;
  for (const auto& [key, entry] : tracker_.content()) {
    if (wanted.count(ContentDigest::bucket_of(key)) == 0) continue;
    const auto it = offered.find(key);
    if (it != offered.end() &&
        it->second->hash == tracker_.digest().hash_of(key)) {
      offered.erase(it);  // identical on both sides
      continue;
    }
    batch.adds.push_back(entry);  // missing or mismatched replica-side
    if (it != offered.end()) offered.erase(it);
  }
  for (const auto& [key, fp] : offered) {
    batch.deletes.push_back(fp->dn);  // replica holds it, content does not
  }
  // Every other bucket holds the round-1 content: the equation (2) delta.
  delta(cursor, wanted, batch);
  advance(cursor);
  return batch;
}

void FilterGroup::degrade(GroupCursor& cursor) {
  if (cursor.degraded) return;
  account(cursor, false);
  replay(cursor.pos, cursor);
  cursor.degraded = true;
  account(cursor, true);
  trim();
}

void FilterGroup::collapse(GroupCursor& cursor) {
  if (cursor.collapsed) return;
  account(cursor, false);
  if (!cursor.degraded) replay(cursor.pos, cursor);
  cursor.touched.clear();
  cursor.degraded = true;
  cursor.collapsed = true;
  account(cursor, true);
  trim();
}

}  // namespace fbdr::sync
