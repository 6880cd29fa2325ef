#ifndef EXCESS_OBJECTS_INDEX_H_
#define EXCESS_OBJECTS_INDEX_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "objects/store.h"
#include "objects/value.h"
#include "util/status.h"

namespace excess {

/// Kinds of secondary index (docs/INDEXES.md). A hash index supports
/// equality and membership probes; an ordered index additionally supports
/// range probes over a single comparable key family.
enum class IndexKind { kHash, kOrdered };

const char* IndexKindToString(IndexKind kind);

/// The durable definition of a secondary index: everything persisted by the
/// snapshot format and replayed from `create index` WAL records. Entries
/// are *not* persisted — an index rebuilds from its base set on open
/// (docs/INDEXES.md "persistence").
struct IndexDef {
  std::string name;
  /// Named top-level multiset the index covers.
  std::string set_name;
  /// Key path: field extractions applied to each element, dereferencing
  /// lazily whenever the current value is a reference. The empty path keys
  /// the element itself (an identity index). No dereference is applied
  /// after the last step, so a ref-valued field keys the raw OID — the
  /// "index on OID targets" case that accelerates deref joins.
  std::vector<std::string> path;
  IndexKind kind = IndexKind::kHash;
};

/// How an element classified during key extraction.
enum class IndexKeyClass {
  kKeyed,   // extraction produced a non-null key
  kUnk,     // a step (or the key itself) was unk — retained, matches like
            // the hash-join unk partition (unk keys are candidates against
            // every probe, because atoms evaluate unk before dne)
  kDne,     // the key is dne — only pairs with unk probes
  kFailed,  // extraction errored (deref failure, non-tuple step, missing
            // field); a non-empty failed partition disables index-backed
            // probing so errors reproduce exactly via the scan fallback
};

/// A persistent secondary index over one named top-level multiset.
///
/// Partition semantics deliberately mirror EvalHashJoin's key split: keyed
/// entries live in per-key buckets, unk-keyed entries are candidates for
/// every probe, dne-keyed entries only pair with unk probes, and any failed
/// extraction forces exact-scan fallback. Bucket equivalence may be
/// *coarser* than Value::Equals (the ordered index groups 1 with 1.0, and
/// unrelated values may share a hash bucket) — that is sound because every
/// consumer re-evaluates the full predicate on the candidates it reads.
class SecondaryIndex {
 public:
  /// A per-key bucket: the distinct elements whose key landed here, with
  /// their multiset cardinalities, in first-indexed order.
  struct Bucket {
    std::vector<SetEntry> entries;
    /// elem -> position in `entries`, so incremental appends merge in O(1).
    Value::SetIndex pos;
    int64_t TotalCount() const;
  };

  /// Comparator for ordered buckets: a strict weak ordering over *all*
  /// values, coarser than Value::Equals. Keys order by family (other <
  /// numeric < string < bool), numerics by coerced value with NaN ranked
  /// last, strings lexicographically, bools false < true, and everything
  /// else by deep hash. Range probes are only served when every keyed
  /// bucket is in the probe's family (see OrderedRange), so the cross-
  /// family order is never observable in results.
  struct OrderedKeyLess {
    bool operator()(const ValuePtr& a, const ValuePtr& b) const;
  };
  /// 0 = other, 1 = numeric (int/float/date), 2 = string, 3 = bool.
  static int KeyFamily(const Value& v);
  static constexpr int kNumKeyFamilies = 4;

  using HashBuckets =
      std::unordered_map<ValuePtr, Bucket, ValuePtrDeepHash, ValuePtrDeepEq>;
  using OrderedBuckets = std::map<ValuePtr, Bucket, OrderedKeyLess>;

  SecondaryIndex(IndexDef def, const ObjectStore* store)
      : def_(std::move(def)), store_(store) {}
  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;

  const IndexDef& def() const { return def_; }

  /// Classifies `elem` and, for kKeyed, writes the extracted key.
  IndexKeyClass ExtractKey(const ValuePtr& elem, ValuePtr* key_out) const;

  /// Drops all entries and re-indexes `value`. A null or non-set value
  /// disables the index (every probe falls back to scan) until the next
  /// rebuild over a set — `into` overwrites may legally change a name's
  /// shape.
  void Rebuild(const ValuePtr& value);

  /// Incrementally indexes one appended occurrence group (the AppendNamed
  /// fast path; O(1) amortized, preserving linear WAL replay).
  void Add(const ValuePtr& elem, int64_t count);

  /// True when probes may be answered from the index: not disabled and no
  /// element failed key extraction.
  bool Usable() const { return !disabled_ && failed_count_ == 0; }
  bool disabled() const { return disabled_; }
  int64_t failed_count() const { return failed_count_; }

  /// Equality probe: the bucket whose key groups with `key`, or nullptr.
  const Bucket* EqBucket(const ValuePtr& key) const;

  /// One end of a range probe: `key` bounds the interval, inclusively or
  /// not; a null key leaves that end open.
  struct RangeEnd {
    ValuePtr key;
    bool inclusive = false;
  };

  /// Range probe (ordered indexes only): appends to `out`, in key order,
  /// the buckets whose keys lie in the interval from `lo` to `hi`. NaN keys
  /// rank last, but Value::Compare calls them equal to every numeric, so
  /// they satisfy exactly the inclusive ends: their buckets are appended
  /// whenever every bounded end is inclusive, whatever the interval. An
  /// empty interval (lo above hi, or lo == hi with a strict end) walks no
  /// other bucket. Returns false — caller must fall back to a full
  /// predicate scan — when the index is hash-kind, both ends are open, an
  /// end is NaN or non-comparable, the ends are of different families, or
  /// any keyed bucket lives outside the ends' family (a scan would raise
  /// TypeError on the cross-family comparison, and fallback reproduces that
  /// exactly).
  bool OrderedRange(const RangeEnd& lo, const RangeEnd& hi,
                    std::vector<const Bucket*>* out) const;

  const HashBuckets& hash_buckets() const { return hash_; }
  const OrderedBuckets& ordered_buckets() const { return ordered_; }
  const std::vector<SetEntry>& unk_entries() const { return unk_; }
  const std::vector<SetEntry>& dne_entries() const { return dne_; }

  /// Statistics for the cost model.
  int64_t distinct_keys() const {
    return static_cast<int64_t>(def_.kind == IndexKind::kOrdered
                                    ? ordered_.size()
                                    : hash_.size());
  }
  int64_t keyed_total() const { return keyed_total_; }
  int64_t entry_total() const { return entry_total_; }

 private:
  Bucket* BucketFor(const ValuePtr& key);

  IndexDef def_;
  const ObjectStore* store_;
  HashBuckets hash_;
  OrderedBuckets ordered_;
  std::vector<SetEntry> unk_;
  std::vector<SetEntry> dne_;
  Value::SetIndex unk_pos_;
  Value::SetIndex dne_pos_;
  int64_t failed_count_ = 0;
  int64_t keyed_total_ = 0;
  int64_t entry_total_ = 0;
  std::array<int64_t, kNumKeyFamilies> family_buckets_ = {0, 0, 0, 0};
  bool disabled_ = false;
};

}  // namespace excess

#endif  // EXCESS_OBJECTS_INDEX_H_
