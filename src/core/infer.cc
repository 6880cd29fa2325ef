#include "core/infer.h"

#include "util/string_util.h"

namespace excess {

SchemaPtr SchemaOfValue(const ValuePtr& value, const ObjectStore* store) {
  if (value == nullptr) return AnySchema();
  switch (value->kind()) {
    case ValueKind::kInt:
      return IntSchema();
    case ValueKind::kFloat:
      return FloatSchema();
    case ValueKind::kString:
      return StringSchema();
    case ValueKind::kBool:
      return BoolSchema();
    case ValueKind::kDate:
      return DateSchema();
    case ValueKind::kDne:
    case ValueKind::kUnk:
      return AnySchema();
    case ValueKind::kTuple: {
      std::vector<Field> fields;
      fields.reserve(value->num_fields());
      for (size_t i = 0; i < value->num_fields(); ++i) {
        fields.push_back({value->field_names()[i],
                          SchemaOfValue(value->field_values()[i], store)});
      }
      SchemaPtr s = Schema::Tup(std::move(fields));
      if (!value->type_tag().empty()) s = Schema::Named(s, value->type_tag());
      return s;
    }
    case ValueKind::kSet: {
      SchemaPtr elem;
      for (const auto& e : value->entries()) {
        SchemaPtr s = SchemaOfValue(e.value, store);
        if (elem == nullptr) {
          elem = s;
        } else if (!elem->CompatibleWith(*s)) {
          elem = AnySchema();
          break;
        }
      }
      return Schema::Set(elem != nullptr ? elem : AnySchema());
    }
    case ValueKind::kArray: {
      SchemaPtr elem;
      for (const auto& e : value->elems()) {
        SchemaPtr s = SchemaOfValue(e, store);
        if (elem == nullptr) {
          elem = s;
        } else if (!elem->CompatibleWith(*s)) {
          elem = AnySchema();
          break;
        }
      }
      return Schema::Arr(elem != nullptr ? elem : AnySchema());
    }
    case ValueKind::kRef: {
      std::string target;
      if (store != nullptr) {
        auto r = store->ExactType(value->oid());
        if (r.ok()) target = *r;
      }
      return Schema::Ref(target.empty() ? "$anon" : target);
    }
  }
  return AnySchema();
}

Result<SchemaPtr> TypeInference::Infer(const ExprPtr& expr, SchemaPtr input) {
  if (expr == nullptr) return Status::Invalid("Infer on null expression");
  return InferNode(*expr, input);
}

namespace {

bool IsAny(const SchemaPtr& s) {
  return s->is_val() && s->scalar_kind() == ScalarKind::kAny;
}

Status ExpectCtor(const SchemaPtr& s, TypeCtor ctor, const char* op) {
  if (IsAny(s)) return Status::OK();  // dynamic: checked again at run time
  if (s->ctor() != ctor) {
    return Status::TypeError(StrCat(op, " requires a ", TypeCtorToString(ctor),
                                    " input, got ", s->ToString()));
  }
  return Status::OK();
}

/// Element schema of a set/array schema, tolerating `any`.
SchemaPtr ElemOf(const SchemaPtr& s) {
  if (IsAny(s)) return AnySchema();
  return s->elem();
}

/// Merges two compatible schemas, preferring the more specific (non-any).
SchemaPtr MergeSchemas(const SchemaPtr& a, const SchemaPtr& b) {
  return IsAny(a) ? b : a;
}

}  // namespace

Status TypeInference::CheckPredicate(const Predicate& p, const SchemaPtr& input) {
  if (depth_ >= kMaxDepth) {
    return Status::ResourceExhausted("predicate nesting too deep to infer");
  }
  DepthGuard guard(&depth_);
  switch (p.kind) {
    case Predicate::Kind::kAtom: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr lhs, Infer(p.lhs, input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr rhs, Infer(p.rhs, input));
      if (p.cmp == CmpOp::kIn) {
        EXA_RETURN_NOT_OK(ExpectCtor(rhs, TypeCtor::kSet, "'in'"));
        return Status::OK();
      }
      if (p.cmp != CmpOp::kEq && p.cmp != CmpOp::kNe) {
        // Ordering comparators need ordered scalars.
        auto ordered = [](const SchemaPtr& s) {
          return IsAny(s) || (s->is_val() && s->scalar_kind() != ScalarKind::kBool);
        };
        if (!ordered(lhs) || !ordered(rhs)) {
          return Status::TypeError(
              StrCat("ordering comparison over non-scalar operands: ",
                     lhs->ToString(), " vs ", rhs->ToString()));
        }
      }
      return Status::OK();
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      EXA_RETURN_NOT_OK(CheckPredicate(*p.a, input));
      return CheckPredicate(*p.b, input);
    case Predicate::Kind::kNot:
      return CheckPredicate(*p.a, input);
    case Predicate::Kind::kTrue:
      return Status::OK();
  }
  return Status::Internal("unknown predicate kind");
}

Result<SchemaPtr> TypeInference::InferNode(const Expr& e, const SchemaPtr& input) {
  if (depth_ >= kMaxDepth) {
    return Status::ResourceExhausted("plan nesting too deep to infer");
  }
  DepthGuard guard(&depth_);
  switch (e.kind()) {
    case OpKind::kInput:
      if (input == nullptr) {
        return Status::TypeError("INPUT used outside an apply/COMP context");
      }
      return input;
    case OpKind::kConst:
      return SchemaOfValue(e.literal(), db_ ? &db_->store() : nullptr);
    case OpKind::kVar:
      return db_->NamedSchema(e.name());
    case OpKind::kParam:
      return AnySchema();

    case OpKind::kAddUnion:
    case OpKind::kDiff: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kSet, OpKindToString(e.kind())));
      EXA_RETURN_NOT_OK(ExpectCtor(b, TypeCtor::kSet, OpKindToString(e.kind())));
      if (!IsAny(a) && !IsAny(b) && !a->elem()->CompatibleWith(*b->elem())) {
        return Status::TypeError(
            StrCat(OpKindToString(e.kind()), " over incompatible multisets ",
                   a->ToString(), " and ", b->ToString()));
      }
      return MergeSchemas(a, b);
    }
    case OpKind::kSetMake: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr x, InferNode(*e.child(0), input));
      return Schema::Set(std::move(x));
    }
    case OpKind::kSetApply: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr in, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(in, TypeCtor::kSet, "SET_APPLY"));
      SchemaPtr elem = ElemOf(in);
      if (!e.type_filter().empty() && db_ != nullptr &&
          db_->catalog().HasType(e.type_filter())) {
        // §4: inside a typed SET_APPLY the element is known to be exactly
        // of the filter type, so the subscript sees its effective schema
        // (through a ref if the collection holds references).
        EXA_ASSIGN_OR_RETURN(SchemaPtr exact,
                             db_->catalog().EffectiveSchema(e.type_filter()));
        if (!elem->is_ref()) elem = exact;
      }
      EXA_ASSIGN_OR_RETURN(SchemaPtr out, Infer(e.sub(), elem));
      return Schema::Set(std::move(out));
    }
    case OpKind::kGroup: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr in, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(in, TypeCtor::kSet, "GRP"));
      // The grouping expression must itself type-check over an element.
      EXA_RETURN_NOT_OK(Infer(e.sub(), ElemOf(in)).status());
      return Schema::Set(Schema::Set(ElemOf(in)));
    }
    case OpKind::kDupElim: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr in, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(in, TypeCtor::kSet, "DE"));
      return in;
    }
    case OpKind::kCross: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kSet, "CROSS"));
      EXA_RETURN_NOT_OK(ExpectCtor(b, TypeCtor::kSet, "CROSS"));
      return Schema::Set(
          Schema::Tup({{"_1", ElemOf(a)}, {"_2", ElemOf(b)}}));
    }
    case OpKind::kHashJoin:
    case OpKind::kIndexJoin: {
      const char* op = OpKindToString(e.kind());
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kSet, op));
      EXA_RETURN_NOT_OK(ExpectCtor(b, TypeCtor::kSet, op));
      // The key expressions must type-check over an element of their side.
      EXA_RETURN_NOT_OK(Infer(e.child(2), ElemOf(a)).status());
      EXA_RETURN_NOT_OK(Infer(e.child(3), ElemOf(b)).status());
      // Same output shape as the SET_APPLY[COMP_θ(opnd)](CROSS) it replaces
      // (θ only filters; opnd defaults to the pair itself).
      SchemaPtr pair = Schema::Tup({{"_1", ElemOf(a)}, {"_2", ElemOf(b)}});
      if (e.sub() == nullptr) return Schema::Set(std::move(pair));
      EXA_ASSIGN_OR_RETURN(SchemaPtr out, Infer(e.sub(), std::move(pair)));
      return Schema::Set(std::move(out));
    }
    case OpKind::kIndexProbe: {
      // Probe expressions are closed relative to the set element; they
      // still type-check in the enclosing scope.
      for (const auto& probe : e.children()) {
        EXA_RETURN_NOT_OK(InferNode(*probe, input).status());
      }
      if (db_ == nullptr) {
        return Status::TypeError("IDX_PROBE requires a database");
      }
      EXA_ASSIGN_OR_RETURN(SchemaPtr base, db_->NamedSchema(e.names().at(0)));
      EXA_RETURN_NOT_OK(ExpectCtor(base, TypeCtor::kSet, "IDX_PROBE"));
      // Same output shape as the SET_APPLY[COMP] it replaces: the operand
      // binder applied to an element of the base set.
      EXA_ASSIGN_OR_RETURN(SchemaPtr out, Infer(e.sub(), ElemOf(base)));
      return Schema::Set(std::move(out));
    }
    case OpKind::kSetCollapse: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr in, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(in, TypeCtor::kSet, "SET_COLLAPSE"));
      SchemaPtr elem = ElemOf(in);
      EXA_RETURN_NOT_OK(ExpectCtor(elem, TypeCtor::kSet, "SET_COLLAPSE member"));
      return IsAny(elem) ? Schema::Set(AnySchema()) : elem;
    }

    case OpKind::kProject: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr t, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(t, TypeCtor::kTup, "PI"));
      if (IsAny(t)) return AnySchema();
      std::vector<Field> fields;
      for (const auto& name : e.names()) {
        EXA_ASSIGN_OR_RETURN(SchemaPtr ft, t->FieldType(name));
        fields.push_back({name, std::move(ft)});
      }
      return Schema::Tup(std::move(fields));
    }
    case OpKind::kTupCat: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kTup, "TUP_CAT"));
      EXA_RETURN_NOT_OK(ExpectCtor(b, TypeCtor::kTup, "TUP_CAT"));
      if (IsAny(a) || IsAny(b)) return AnySchema();
      std::vector<Field> fields = a->fields();
      fields.insert(fields.end(), b->fields().begin(), b->fields().end());
      // TUP_CAT may duplicate names; the schema keeps both, as the value
      // does. Validate() would reject duplicates, so build without it.
      return Schema::Tup(std::move(fields));
    }
    case OpKind::kTupExtract: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr t, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(t, TypeCtor::kTup, "TUP_EXTRACT"));
      if (IsAny(t)) return AnySchema();
      return t->FieldType(e.name());
    }
    case OpKind::kTupMake: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr x, InferNode(*e.child(0), input));
      return Schema::Tup(
          {{e.name().empty() ? "_1" : e.name(), std::move(x)}});
    }

    case OpKind::kArrMake: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr x, InferNode(*e.child(0), input));
      return Schema::Arr(std::move(x));
    }
    case OpKind::kArrExtract: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "ARR_EXTRACT"));
      return ElemOf(a);
    }
    case OpKind::kArrApply: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "ARR_APPLY"));
      EXA_ASSIGN_OR_RETURN(SchemaPtr out, Infer(e.sub(), ElemOf(a)));
      return Schema::Arr(std::move(out));
    }
    case OpKind::kSubArr: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "SUBARR"));
      return IsAny(a) ? Schema::Arr(AnySchema()) : Schema::Arr(a->elem());
    }
    case OpKind::kArrCat: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "ARR_CAT"));
      EXA_RETURN_NOT_OK(ExpectCtor(b, TypeCtor::kArr, "ARR_CAT"));
      if (IsAny(a) || IsAny(b)) return Schema::Arr(AnySchema());
      if (!a->elem()->CompatibleWith(*b->elem())) {
        return Status::TypeError(StrCat("ARR_CAT over incompatible arrays ",
                                        a->ToString(), " and ", b->ToString()));
      }
      if (a->fixed_size().has_value() && b->fixed_size().has_value()) {
        return Schema::FixedArr(MergeSchemas(a->elem(), b->elem()),
                                *a->fixed_size() + *b->fixed_size());
      }
      return Schema::Arr(MergeSchemas(a->elem(), b->elem()));
    }
    case OpKind::kArrCollapse: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "ARR_COLLAPSE"));
      SchemaPtr elem = ElemOf(a);
      EXA_RETURN_NOT_OK(ExpectCtor(elem, TypeCtor::kArr, "ARR_COLLAPSE element"));
      return IsAny(elem) ? Schema::Arr(AnySchema()) : Schema::Arr(elem->elem());
    }
    case OpKind::kArrDiff: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "ARR_DIFF"));
      EXA_RETURN_NOT_OK(ExpectCtor(b, TypeCtor::kArr, "ARR_DIFF"));
      return IsAny(a) ? Schema::Arr(AnySchema()) : Schema::Arr(a->elem());
    }
    case OpKind::kArrDupElim: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "ARR_DE"));
      return IsAny(a) ? Schema::Arr(AnySchema()) : Schema::Arr(a->elem());
    }
    case OpKind::kArrCross: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      EXA_RETURN_NOT_OK(ExpectCtor(a, TypeCtor::kArr, "ARR_CROSS"));
      EXA_RETURN_NOT_OK(ExpectCtor(b, TypeCtor::kArr, "ARR_CROSS"));
      return Schema::Arr(Schema::Tup({{"_1", ElemOf(a)}, {"_2", ElemOf(b)}}));
    }

    case OpKind::kRef: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr x, InferNode(*e.child(0), input));
      std::string target = e.name();
      if (target.empty()) target = x->type_name();
      return Schema::Ref(target.empty() ? "$anon" : target);
    }
    case OpKind::kDeref: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr r, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(r, TypeCtor::kRef, "DEREF"));
      if (IsAny(r)) return AnySchema();
      if (r->ref_target() == "$anon") return AnySchema();
      if (db_ == nullptr || !db_->catalog().HasType(r->ref_target())) {
        return Status::TypeError(
            StrCat("DEREF of reference to unknown type '", r->ref_target(), "'"));
      }
      return db_->catalog().EffectiveSchema(r->ref_target());
    }

    case OpKind::kComp: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr in, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(CheckPredicate(*e.pred(), in));
      return in;
    }

    case OpKind::kArith: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr a, InferNode(*e.child(0), input));
      EXA_ASSIGN_OR_RETURN(SchemaPtr b, InferNode(*e.child(1), input));
      auto numeric = [](const SchemaPtr& s) {
        return s->is_val() && (s->scalar_kind() == ScalarKind::kInt ||
                               s->scalar_kind() == ScalarKind::kFloat ||
                               s->scalar_kind() == ScalarKind::kDate ||
                               s->scalar_kind() == ScalarKind::kAny);
      };
      if (e.name() == "+" && a->is_val() &&
          a->scalar_kind() == ScalarKind::kString) {
        return StringSchema();
      }
      if (!numeric(a) || !numeric(b)) {
        return Status::TypeError(StrCat("arithmetic over non-numeric schemas ",
                                        a->ToString(), ", ", b->ToString()));
      }
      if (IsAny(a) || IsAny(b)) return AnySchema();
      if (a->scalar_kind() == ScalarKind::kInt &&
          b->scalar_kind() == ScalarKind::kInt) {
        return IntSchema();
      }
      return FloatSchema();
    }
    case OpKind::kAgg: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr in, InferNode(*e.child(0), input));
      EXA_RETURN_NOT_OK(ExpectCtor(in, TypeCtor::kSet, "AGG"));
      if (e.name() == "count") return IntSchema();
      if (e.name() == "avg") return FloatSchema();
      if (e.name() == "sum") {
        SchemaPtr elem = ElemOf(in);
        if (elem->is_val() && elem->scalar_kind() == ScalarKind::kFloat) {
          return FloatSchema();
        }
        if (elem->is_val() && elem->scalar_kind() == ScalarKind::kInt) {
          return IntSchema();
        }
        return AnySchema();
      }
      if (e.name() == "min" || e.name() == "max") return ElemOf(in);
      return Status::NotFound(StrCat("unknown aggregate '", e.name(), "'"));
    }
    case OpKind::kMethodCall:
      // Method bodies are resolved at run time; a full implementation would
      // consult the registry's declared return type. We return the dynamic
      // wildcard, which downstream operators re-check at run time.
      return AnySchema();
  }
  return Status::Internal("unknown operator kind");
}

}  // namespace excess
