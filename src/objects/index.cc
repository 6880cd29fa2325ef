#include "objects/index.h"

#include <cmath>
#include <utility>

namespace excess {

const char* IndexKindToString(IndexKind kind) {
  switch (kind) {
    case IndexKind::kHash:
      return "hash";
    case IndexKind::kOrdered:
      return "ordered";
  }
  return "?";
}

int64_t SecondaryIndex::Bucket::TotalCount() const {
  int64_t total = 0;
  for (const auto& e : entries) total += e.count;
  return total;
}

int SecondaryIndex::KeyFamily(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kInt:
    case ValueKind::kFloat:
    case ValueKind::kDate:
      return 1;
    case ValueKind::kString:
      return 2;
    case ValueKind::kBool:
      return 3;
    default:
      return 0;
  }
}

bool SecondaryIndex::OrderedKeyLess::operator()(const ValuePtr& a,
                                                const ValuePtr& b) const {
  int fa = KeyFamily(*a);
  int fb = KeyFamily(*b);
  if (fa != fb) return fa < fb;
  switch (fa) {
    case 1: {
      double x = a->NumericValue();
      double y = b->NumericValue();
      bool nx = std::isnan(x);
      bool ny = std::isnan(y);
      // NaN ranks after every other numeric (and NaNs group together);
      // plain `<` on NaN would break strict weak ordering.
      if (nx || ny) return !nx && ny;
      return x < y;
    }
    case 2:
      return a->as_string() < b->as_string();
    case 3:
      return !a->as_bool() && b->as_bool();
    default:
      return a->Hash() < b->Hash();
  }
}

IndexKeyClass SecondaryIndex::ExtractKey(const ValuePtr& elem,
                                         ValuePtr* key_out) const {
  ValuePtr v = elem;
  for (const auto& field : def_.path) {
    // Lazy dereference: follow refs whenever a field extraction needs a
    // tuple. This subsumes any explicit DEREFs in the matched predicate
    // path. No deref happens *after* the last step (see IndexDef::path).
    while (v->is_ref()) {
      Result<ValuePtr> d = store_->Deref(v->oid());
      if (!d.ok()) return IndexKeyClass::kFailed;
      v = *d;
    }
    if (v->is_unk()) return IndexKeyClass::kUnk;
    if (v->is_dne()) return IndexKeyClass::kDne;
    if (!v->is_tuple()) return IndexKeyClass::kFailed;
    Result<ValuePtr> f = v->Field(field);
    if (!f.ok()) return IndexKeyClass::kFailed;
    v = *f;
  }
  if (v->is_unk()) return IndexKeyClass::kUnk;
  if (v->is_dne()) return IndexKeyClass::kDne;
  *key_out = v;
  return IndexKeyClass::kKeyed;
}

namespace {
void MergeEntry(std::vector<SetEntry>* entries, Value::SetIndex* pos,
                const ValuePtr& elem, int64_t count) {
  auto it = pos->find(elem);
  if (it != pos->end()) {
    (*entries)[it->second].count += count;
    return;
  }
  pos->emplace(elem, entries->size());
  entries->push_back({elem, count});
}
}  // namespace

SecondaryIndex::Bucket* SecondaryIndex::BucketFor(const ValuePtr& key) {
  if (def_.kind == IndexKind::kOrdered) {
    auto [it, inserted] = ordered_.try_emplace(key);
    if (inserted) ++family_buckets_[KeyFamily(*key)];
    return &it->second;
  }
  auto [it, inserted] = hash_.try_emplace(key);
  if (inserted) ++family_buckets_[KeyFamily(*key)];
  return &it->second;
}

void SecondaryIndex::Add(const ValuePtr& elem, int64_t count) {
  if (disabled_ || count <= 0) return;
  entry_total_ += count;
  ValuePtr key;
  switch (ExtractKey(elem, &key)) {
    case IndexKeyClass::kKeyed: {
      Bucket* b = BucketFor(key);
      MergeEntry(&b->entries, &b->pos, elem, count);
      keyed_total_ += count;
      return;
    }
    case IndexKeyClass::kUnk:
      MergeEntry(&unk_, &unk_pos_, elem, count);
      return;
    case IndexKeyClass::kDne:
      MergeEntry(&dne_, &dne_pos_, elem, count);
      return;
    case IndexKeyClass::kFailed:
      failed_count_ += count;
      return;
  }
}

void SecondaryIndex::Rebuild(const ValuePtr& value) {
  hash_.clear();
  ordered_.clear();
  unk_.clear();
  dne_.clear();
  unk_pos_.clear();
  dne_pos_.clear();
  failed_count_ = 0;
  keyed_total_ = 0;
  entry_total_ = 0;
  family_buckets_ = {0, 0, 0, 0};
  // An `into` overwrite may rebind the name to a non-set shape; the index
  // stays defined but disabled until a later rebuild sees a set again.
  disabled_ = value == nullptr || !value->is_set();
  if (disabled_) return;
  for (const SetEntry& e : value->entries()) Add(e.value, e.count);
}

const SecondaryIndex::Bucket* SecondaryIndex::EqBucket(
    const ValuePtr& key) const {
  if (def_.kind == IndexKind::kOrdered) {
    auto it = ordered_.find(key);
    return it == ordered_.end() ? nullptr : &it->second;
  }
  auto it = hash_.find(key);
  return it == hash_.end() ? nullptr : &it->second;
}

bool SecondaryIndex::OrderedRange(const RangeEnd& lo, const RangeEnd& hi,
                                  std::vector<const Bucket*>* out) const {
  if (def_.kind != IndexKind::kOrdered) return false;
  int family = -1;
  for (const RangeEnd* end : {&lo, &hi}) {
    if (end->key == nullptr) continue;
    int f = KeyFamily(*end->key);
    if (f == 0 || (family >= 0 && f != family)) return false;
    // Value::Compare treats NaN as equal to every numeric; serving a NaN
    // bound from the sorted order would disagree, so scan instead.
    if (f == 1 && std::isnan(end->key->NumericValue())) return false;
    family = f;
  }
  if (family < 0) return false;  // nothing bounds the walk
  for (int f = 0; f < kNumKeyFamilies; ++f) {
    if (f != family && family_buckets_[f] > 0) return false;
  }
  static const ValuePtr kNaN = Value::Float(std::nan(""));
  auto nan = family == 1 ? ordered_.lower_bound(kNaN) : ordered_.end();
  auto first = lo.key == nullptr ? ordered_.begin()
               : lo.inclusive    ? ordered_.lower_bound(lo.key)
                                 : ordered_.upper_bound(lo.key);
  auto last = hi.key == nullptr ? nan
              : hi.inclusive    ? ordered_.upper_bound(hi.key)
                                : ordered_.lower_bound(hi.key);
  // The iterators of an empty interval may cross; never walk them.
  const OrderedKeyLess less;
  const bool empty =
      lo.key != nullptr && hi.key != nullptr &&
      (less(hi.key, lo.key) ||
       (!less(lo.key, hi.key) && !(lo.inclusive && hi.inclusive)));
  if (!empty) {
    for (auto it = first; it != last; ++it) out->push_back(&it->second);
  }
  if ((lo.key == nullptr || lo.inclusive) &&
      (hi.key == nullptr || hi.inclusive)) {
    for (auto it = nan; it != ordered_.end(); ++it) {
      out->push_back(&it->second);
    }
  }
  return true;
}

}  // namespace excess
