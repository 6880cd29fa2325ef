#include "storage/serialize.h"

#include <cstring>
#include <unordered_map>

#include "util/string_util.h"

namespace excess {
namespace storage {

namespace {

/// Value / schema trees deeper than this are rejected at decode time. The
/// parser caps expression nesting at 200, so no legitimately persisted
/// value comes near it; the cap exists to bound recursion on corrupt input.
constexpr int kMaxDecodeDepth = 256;

Result<ValuePtr> DecodeValueAt(Reader* r, int depth);
Result<SchemaPtr> DecodeSchemaAt(Reader* r, int depth);

}  // namespace

// ---------------------------------------------------------------------------
// Writer / Reader primitives.
// ---------------------------------------------------------------------------

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Writer::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

Status Reader::Need(size_t n) const {
  if (size_ - pos_ < n) {
    return Status::DataLoss(
        StrCat("truncated record: need ", n, " bytes, have ", size_ - pos_));
  }
  return Status::OK();
}

Result<uint8_t> Reader::U8() {
  EXA_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Reader::U32() {
  EXA_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::U64() {
  EXA_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> Reader::I64() {
  EXA_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> Reader::F64() {
  EXA_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> Reader::Str() {
  EXA_ASSIGN_OR_RETURN(uint32_t len, U32());
  EXA_RETURN_NOT_OK(Need(len));
  std::string s(data_ + pos_, len);
  pos_ += len;
  return s;
}

Result<uint32_t> Reader::Count(size_t min_elem_bytes) {
  EXA_ASSIGN_OR_RETURN(uint32_t n, U32());
  if (min_elem_bytes > 0 &&
      static_cast<uint64_t>(n) * min_elem_bytes > remaining()) {
    return Status::DataLoss(
        StrCat("implausible element count ", n, " with ", remaining(),
               " bytes remaining"));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Value codec.
// ---------------------------------------------------------------------------

void EncodeValue(const ValuePtr& v, Writer* w) {
  w->U8(static_cast<uint8_t>(v->kind()));
  switch (v->kind()) {
    case ValueKind::kInt:
    case ValueKind::kDate:
      w->I64(v->as_int());
      return;
    case ValueKind::kFloat:
      w->F64(v->as_float());
      return;
    case ValueKind::kString:
      w->Str(v->as_string());
      return;
    case ValueKind::kBool:
      w->U8(v->as_bool() ? 1 : 0);
      return;
    case ValueKind::kDne:
    case ValueKind::kUnk:
      return;
    case ValueKind::kTuple: {
      w->Str(v->type_tag());
      w->U32(static_cast<uint32_t>(v->num_fields()));
      for (size_t i = 0; i < v->num_fields(); ++i) {
        w->Str(v->field_names()[i]);
        EncodeValue(v->field_values()[i], w);
      }
      return;
    }
    case ValueKind::kSet: {
      w->U32(static_cast<uint32_t>(v->entries().size()));
      for (const auto& e : v->entries()) {
        w->I64(e.count);
        EncodeValue(e.value, w);
      }
      return;
    }
    case ValueKind::kArray: {
      w->U32(static_cast<uint32_t>(v->elems().size()));
      for (const auto& e : v->elems()) EncodeValue(e, w);
      return;
    }
    case ValueKind::kRef:
      w->U32(v->oid().type_id);
      w->U64(v->oid().serial);
      return;
  }
}

namespace {

Result<ValuePtr> DecodeValueAt(Reader* r, int depth) {
  if (depth > kMaxDecodeDepth) {
    return Status::DataLoss("value nesting exceeds decode depth limit");
  }
  EXA_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (static_cast<ValueKind>(tag)) {
    case ValueKind::kInt: {
      EXA_ASSIGN_OR_RETURN(int64_t v, r->I64());
      return Value::Int(v);
    }
    case ValueKind::kDate: {
      EXA_ASSIGN_OR_RETURN(int64_t v, r->I64());
      return Value::Date(v);
    }
    case ValueKind::kFloat: {
      EXA_ASSIGN_OR_RETURN(double v, r->F64());
      return Value::Float(v);
    }
    case ValueKind::kString: {
      EXA_ASSIGN_OR_RETURN(std::string v, r->Str());
      return Value::Str(std::move(v));
    }
    case ValueKind::kBool: {
      EXA_ASSIGN_OR_RETURN(uint8_t v, r->U8());
      return Value::Bool(v != 0);
    }
    case ValueKind::kDne:
      return Value::Dne();
    case ValueKind::kUnk:
      return Value::Unk();
    case ValueKind::kTuple: {
      EXA_ASSIGN_OR_RETURN(std::string type_tag, r->Str());
      EXA_ASSIGN_OR_RETURN(uint32_t n, r->Count(5));
      std::vector<std::string> names;
      std::vector<ValuePtr> vals;
      names.reserve(n);
      vals.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        EXA_ASSIGN_OR_RETURN(std::string name, r->Str());
        EXA_ASSIGN_OR_RETURN(ValuePtr v, DecodeValueAt(r, depth + 1));
        names.push_back(std::move(name));
        vals.push_back(std::move(v));
      }
      return Value::Tuple(std::move(names), std::move(vals),
                          std::move(type_tag));
    }
    case ValueKind::kSet: {
      EXA_ASSIGN_OR_RETURN(uint32_t n, r->Count(9));
      std::vector<SetEntry> entries;
      entries.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        EXA_ASSIGN_OR_RETURN(int64_t count, r->I64());
        EXA_ASSIGN_OR_RETURN(ValuePtr v, DecodeValueAt(r, depth + 1));
        entries.push_back(SetEntry{std::move(v), count});
      }
      // SetOfCounted normalizes; encoded entries are already normalized, so
      // the round trip preserves entry order and counts exactly.
      return Value::SetOfCounted(std::move(entries));
    }
    case ValueKind::kArray: {
      EXA_ASSIGN_OR_RETURN(uint32_t n, r->Count(1));
      std::vector<ValuePtr> elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        EXA_ASSIGN_OR_RETURN(ValuePtr v, DecodeValueAt(r, depth + 1));
        elems.push_back(std::move(v));
      }
      return Value::ArrayOf(std::move(elems));
    }
    case ValueKind::kRef: {
      EXA_ASSIGN_OR_RETURN(uint32_t type_id, r->U32());
      EXA_ASSIGN_OR_RETURN(uint64_t serial, r->U64());
      return Value::RefTo(Oid{type_id, serial});
    }
  }
  return Status::DataLoss(StrCat("unknown value kind tag ", static_cast<int>(tag)));
}

/// True when `a` and `b` encode to the same bytes: equal kinds, field
/// names and order, type tags, entry order and counts, and float bits.
/// Value::Equals is coarser (it ignores all of these but the kinds).
bool SameEncoding(const Value& a, const Value& b) {
  if (&a == &b) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::kInt:
    case ValueKind::kDate:
      return a.as_int() == b.as_int();
    case ValueKind::kFloat: {
      double x = a.as_float(), y = b.as_float();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueKind::kString:
      return a.as_string() == b.as_string();
    case ValueKind::kBool:
      return a.as_bool() == b.as_bool();
    case ValueKind::kDne:
    case ValueKind::kUnk:
      return true;
    case ValueKind::kRef:
      return a.oid() == b.oid();
    case ValueKind::kTuple:
      if (a.type_tag() != b.type_tag() || a.field_names() != b.field_names()) {
        return false;
      }
      [[fallthrough]];
    case ValueKind::kArray: {
      const auto& x = a.is_tuple() ? a.field_values() : a.elems();
      const auto& y = b.is_tuple() ? b.field_values() : b.elems();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!SameEncoding(*x[i], *y[i])) return false;
      }
      return true;
    }
    case ValueKind::kSet: {
      const auto& x = a.entries();
      const auto& y = b.entries();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].count != y[i].count ||
            !SameEncoding(*x[i].value, *y[i].value)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

/// `v`, sharing what it has in common with `twin`: `twin` itself when the
/// two encode alike, else (for two tuples with the same fields and tag) a
/// copy of `v` whose fields that encode like `twin`'s are `twin`'s.
ValuePtr ShareWith(const ValuePtr& v, const ValuePtr& twin) {
  if (!v->is_tuple() || !twin->is_tuple() ||
      v->type_tag() != twin->type_tag() ||
      v->field_names() != twin->field_names()) {
    return SameEncoding(*v, *twin) ? twin : v;
  }
  std::vector<ValuePtr> fields = v->field_values();
  const auto& twins = twin->field_values();
  bool all = true;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (SameEncoding(*fields[i], *twins[i])) {
      fields[i] = twins[i];
    } else {
      all = false;
    }
  }
  if (all) return twin;
  return Value::Tuple(v->field_names(), std::move(fields), v->type_tag());
}

}  // namespace

Result<ValuePtr> DecodeValue(Reader* r) { return DecodeValueAt(r, 0); }

// ---------------------------------------------------------------------------
// Schema codec.
// ---------------------------------------------------------------------------

void EncodeSchema(const SchemaPtr& s, Writer* w) {
  w->U8(static_cast<uint8_t>(s->ctor()));
  w->Str(s->type_name());
  switch (s->ctor()) {
    case TypeCtor::kVal:
      w->U8(static_cast<uint8_t>(s->scalar_kind()));
      return;
    case TypeCtor::kTup:
      w->U32(static_cast<uint32_t>(s->fields().size()));
      for (const auto& f : s->fields()) {
        w->Str(f.name);
        EncodeSchema(f.type, w);
      }
      return;
    case TypeCtor::kSet:
      EncodeSchema(s->elem(), w);
      return;
    case TypeCtor::kArr:
      w->U8(s->fixed_size().has_value() ? 1 : 0);
      if (s->fixed_size().has_value()) w->I64(*s->fixed_size());
      EncodeSchema(s->elem(), w);
      return;
    case TypeCtor::kRef:
      w->Str(s->ref_target());
      return;
  }
}

namespace {

Result<SchemaPtr> DecodeSchemaAt(Reader* r, int depth) {
  if (depth > kMaxDecodeDepth) {
    return Status::DataLoss("schema nesting exceeds decode depth limit");
  }
  EXA_ASSIGN_OR_RETURN(uint8_t ctor_tag, r->U8());
  EXA_ASSIGN_OR_RETURN(std::string type_name, r->Str());
  SchemaPtr s;
  switch (static_cast<TypeCtor>(ctor_tag)) {
    case TypeCtor::kVal: {
      EXA_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
      if (kind > static_cast<uint8_t>(ScalarKind::kAny)) {
        return Status::DataLoss(StrCat("unknown scalar kind tag ", static_cast<int>(kind)));
      }
      s = Schema::Val(static_cast<ScalarKind>(kind));
      break;
    }
    case TypeCtor::kTup: {
      EXA_ASSIGN_OR_RETURN(uint32_t n, r->Count(6));
      std::vector<Field> fields;
      fields.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        EXA_ASSIGN_OR_RETURN(std::string name, r->Str());
        EXA_ASSIGN_OR_RETURN(SchemaPtr ft, DecodeSchemaAt(r, depth + 1));
        fields.push_back(Field{std::move(name), std::move(ft)});
      }
      s = Schema::Tup(std::move(fields));
      break;
    }
    case TypeCtor::kSet: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr elem, DecodeSchemaAt(r, depth + 1));
      s = Schema::Set(std::move(elem));
      break;
    }
    case TypeCtor::kArr: {
      EXA_ASSIGN_OR_RETURN(uint8_t has_size, r->U8());
      int64_t size = 0;
      if (has_size != 0) {
        EXA_ASSIGN_OR_RETURN(size, r->I64());
      }
      EXA_ASSIGN_OR_RETURN(SchemaPtr elem, DecodeSchemaAt(r, depth + 1));
      s = has_size != 0 ? Schema::FixedArr(std::move(elem), size)
                        : Schema::Arr(std::move(elem));
      break;
    }
    case TypeCtor::kRef: {
      EXA_ASSIGN_OR_RETURN(std::string target, r->Str());
      s = Schema::Ref(std::move(target));
      break;
    }
    default:
      return Status::DataLoss(StrCat("unknown type ctor tag ", static_cast<int>(ctor_tag)));
  }
  if (!type_name.empty()) s = Schema::Named(s, std::move(type_name));
  return s;
}

}  // namespace

Result<SchemaPtr> DecodeSchema(Reader* r) { return DecodeSchemaAt(r, 0); }

// ---------------------------------------------------------------------------
// Snapshot payload.
// ---------------------------------------------------------------------------

std::string EncodeSnapshotPayload(const SnapshotState& state) {
  Writer w;
  w.U64(state.seq);

  w.U32(static_cast<uint32_t>(state.types.size()));
  for (const auto& def : state.types) {
    w.Str(def.name);
    EncodeSchema(def.declared, &w);
    w.U32(static_cast<uint32_t>(def.parents.size()));
    for (const auto& p : def.parents) w.Str(p);
  }

  const auto& store = state.store;
  w.U32(static_cast<uint32_t>(store.id_names.size()));
  for (const auto& name : store.id_names) w.Str(name);
  w.U32(static_cast<uint32_t>(store.next_serial.size()));
  for (const auto& [name, serial] : store.next_serial) {
    w.Str(name);
    w.U64(serial);
  }
  w.U32(static_cast<uint32_t>(store.objects.size()));
  for (const auto& obj : store.objects) {
    w.U32(obj.oid.type_id);
    w.U64(obj.oid.serial);
    w.Str(obj.allocation_type);
    w.Str(obj.exact_type);
    EncodeValue(obj.value, &w);
  }
  w.U32(static_cast<uint32_t>(store.interned.size()));
  for (const auto& entry : store.interned) {
    w.Str(entry.type);
    w.U32(entry.oid.type_id);
    w.U64(entry.oid.serial);
    EncodeValue(entry.key, &w);
  }

  w.U32(static_cast<uint32_t>(state.named.size()));
  for (const auto& named : state.named) {
    w.Str(named.name);
    EncodeSchema(named.schema, &w);
    EncodeValue(named.value, &w);
  }

  w.U32(static_cast<uint32_t>(state.context.size()));
  for (const auto& src : state.context) w.Str(src);

  // v2: secondary index definitions. Decoders treat this section as
  // optional, so v1 files (which end right after the context sources)
  // still decode.
  w.U32(static_cast<uint32_t>(state.indexes.size()));
  for (const auto& def : state.indexes) {
    w.Str(def.name);
    w.Str(def.set_name);
    w.U32(static_cast<uint32_t>(def.path.size()));
    for (const auto& field : def.path) w.Str(field);
    w.U8(def.kind == IndexKind::kOrdered ? 1 : 0);
  }

  return w.Take();
}

Result<SnapshotState> DecodeSnapshotPayload(const std::string& payload) {
  Reader r(payload);
  SnapshotState state;
  EXA_ASSIGN_OR_RETURN(state.seq, r.U64());

  EXA_ASSIGN_OR_RETURN(uint32_t ntypes, r.Count(8));
  state.types.reserve(ntypes);
  for (uint32_t i = 0; i < ntypes; ++i) {
    Catalog::TypeDef def;
    EXA_ASSIGN_OR_RETURN(def.name, r.Str());
    EXA_ASSIGN_OR_RETURN(def.declared, DecodeSchema(&r));
    EXA_ASSIGN_OR_RETURN(uint32_t nparents, r.Count(4));
    def.parents.reserve(nparents);
    for (uint32_t p = 0; p < nparents; ++p) {
      EXA_ASSIGN_OR_RETURN(std::string parent, r.Str());
      def.parents.push_back(std::move(parent));
    }
    state.types.push_back(std::move(def));
  }

  EXA_ASSIGN_OR_RETURN(uint32_t nids, r.Count(4));
  state.store.id_names.reserve(nids);
  for (uint32_t i = 0; i < nids; ++i) {
    EXA_ASSIGN_OR_RETURN(std::string name, r.Str());
    state.store.id_names.push_back(std::move(name));
  }
  EXA_ASSIGN_OR_RETURN(uint32_t nserial, r.Count(12));
  state.store.next_serial.reserve(nserial);
  for (uint32_t i = 0; i < nserial; ++i) {
    EXA_ASSIGN_OR_RETURN(std::string name, r.Str());
    EXA_ASSIGN_OR_RETURN(uint64_t serial, r.U64());
    state.store.next_serial.emplace_back(std::move(name), serial);
  }
  EXA_ASSIGN_OR_RETURN(uint32_t nobjs, r.Count(21));
  state.store.objects.reserve(nobjs);
  for (uint32_t i = 0; i < nobjs; ++i) {
    ObjectStore::StoreDump::ObjDump obj;
    EXA_ASSIGN_OR_RETURN(obj.oid.type_id, r.U32());
    EXA_ASSIGN_OR_RETURN(obj.oid.serial, r.U64());
    EXA_ASSIGN_OR_RETURN(obj.allocation_type, r.Str());
    EXA_ASSIGN_OR_RETURN(obj.exact_type, r.Str());
    EXA_ASSIGN_OR_RETURN(obj.value, DecodeValue(&r));
    state.store.objects.push_back(std::move(obj));
  }
  // An object's intern key is the value it was created with; updates since
  // replaced some fields and shared the rest, until the snapshot encoded
  // both in full. Share them again as each key is read, or a restore holds
  // every object twice.
  std::unordered_map<Oid, const ValuePtr*, OidHash> object_values;
  for (const auto& obj : state.store.objects) {
    object_values.emplace(obj.oid, &obj.value);
  }
  EXA_ASSIGN_OR_RETURN(uint32_t nintern, r.Count(17));
  state.store.interned.reserve(nintern);
  for (uint32_t i = 0; i < nintern; ++i) {
    ObjectStore::StoreDump::InternDump entry;
    EXA_ASSIGN_OR_RETURN(entry.type, r.Str());
    EXA_ASSIGN_OR_RETURN(entry.oid.type_id, r.U32());
    EXA_ASSIGN_OR_RETURN(entry.oid.serial, r.U64());
    EXA_ASSIGN_OR_RETURN(entry.key, DecodeValue(&r));
    auto twin = object_values.find(entry.oid);
    if (twin != object_values.end()) {
      entry.key = ShareWith(entry.key, *twin->second);
    }
    state.store.interned.push_back(std::move(entry));
  }

  EXA_ASSIGN_OR_RETURN(uint32_t nnamed, r.Count(7));
  state.named.reserve(nnamed);
  for (uint32_t i = 0; i < nnamed; ++i) {
    SnapshotState::Named named;
    EXA_ASSIGN_OR_RETURN(named.name, r.Str());
    EXA_ASSIGN_OR_RETURN(named.schema, DecodeSchema(&r));
    EXA_ASSIGN_OR_RETURN(named.value, DecodeValue(&r));
    state.named.push_back(std::move(named));
  }

  EXA_ASSIGN_OR_RETURN(uint32_t nctx, r.Count(4));
  state.context.reserve(nctx);
  for (uint32_t i = 0; i < nctx; ++i) {
    EXA_ASSIGN_OR_RETURN(std::string src, r.Str());
    state.context.push_back(std::move(src));
  }

  // v1 payloads end here; v2 appends the index-definition section.
  if (!r.done()) {
    EXA_ASSIGN_OR_RETURN(uint32_t nidx, r.Count(13));
    state.indexes.reserve(nidx);
    for (uint32_t i = 0; i < nidx; ++i) {
      IndexDef def;
      EXA_ASSIGN_OR_RETURN(def.name, r.Str());
      EXA_ASSIGN_OR_RETURN(def.set_name, r.Str());
      EXA_ASSIGN_OR_RETURN(uint32_t nsteps, r.Count(4));
      def.path.reserve(nsteps);
      for (uint32_t s = 0; s < nsteps; ++s) {
        EXA_ASSIGN_OR_RETURN(std::string field, r.Str());
        def.path.push_back(std::move(field));
      }
      EXA_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
      if (kind > 1) {
        return Status::DataLoss(
            StrCat("unknown index kind tag ", static_cast<int>(kind)));
      }
      def.kind = kind == 1 ? IndexKind::kOrdered : IndexKind::kHash;
      state.indexes.push_back(std::move(def));
    }
  }

  if (!r.done()) {
    return Status::DataLoss(
        StrCat("snapshot payload has ", r.remaining(), " trailing bytes"));
  }
  return state;
}

SnapshotState CaptureDatabase(const Database& db, uint64_t seq,
                              std::vector<std::string> context) {
  SnapshotState state;
  state.seq = seq;
  state.types = db.catalog().DumpDefinitions();
  state.store = db.store().Dump();
  for (const auto& name : db.NamedObjectNames()) {
    const NamedObject* obj = *db.GetNamed(name);
    state.named.push_back(SnapshotState::Named{obj->name, obj->schema, obj->value});
  }
  state.context = std::move(context);
  state.indexes = db.IndexDefs();
  return state;
}

Status InstallDatabase(const SnapshotState& state, Database* db) {
  // Replaying definitions in order reproduces every type id; the store dump
  // then restores OIDs verbatim, and named objects re-attach their values.
  for (const auto& def : state.types) {
    EXA_RETURN_NOT_OK(db->catalog().DefineType(def.name, def.declared,
                                               def.parents));
  }
  EXA_RETURN_NOT_OK(db->store().Restore(state.store));
  for (const auto& named : state.named) {
    EXA_RETURN_NOT_OK(db->CreateNamed(named.name, named.schema, named.value));
  }
  // Indexes last: creation rebuilds each one from its (now restored) base
  // set, so only the definitions travel on disk.
  for (const auto& def : state.indexes) {
    EXA_RETURN_NOT_OK(db->CreateIndex(def));
  }
  return Status::OK();
}

std::string CanonicalDatabaseBytes(const Database& db) {
  // A canonical image is a snapshot at seq 0 with no session context: the
  // capture already orders every collection deterministically.
  return EncodeSnapshotPayload(CaptureDatabase(db, 0, {}));
}

}  // namespace storage
}  // namespace excess
