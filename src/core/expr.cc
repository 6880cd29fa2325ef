#include "core/expr.h"

#include "util/hash.h"
#include "util/string_util.h"

namespace excess {

const char* OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "INPUT";
    case OpKind::kConst: return "CONST";
    case OpKind::kVar: return "VAR";
    case OpKind::kParam: return "PARAM";
    case OpKind::kAddUnion: return "ADD_UNION";
    case OpKind::kSetMake: return "SET";
    case OpKind::kSetApply: return "SET_APPLY";
    case OpKind::kGroup: return "GRP";
    case OpKind::kDupElim: return "DE";
    case OpKind::kDiff: return "DIFF";
    case OpKind::kCross: return "CROSS";
    case OpKind::kSetCollapse: return "SET_COLLAPSE";
    case OpKind::kProject: return "PI";
    case OpKind::kTupCat: return "TUP_CAT";
    case OpKind::kTupExtract: return "TUP_EXTRACT";
    case OpKind::kTupMake: return "TUP";
    case OpKind::kArrMake: return "ARR";
    case OpKind::kArrExtract: return "ARR_EXTRACT";
    case OpKind::kArrApply: return "ARR_APPLY";
    case OpKind::kSubArr: return "SUBARR";
    case OpKind::kArrCat: return "ARR_CAT";
    case OpKind::kArrCollapse: return "ARR_COLLAPSE";
    case OpKind::kArrDiff: return "ARR_DIFF";
    case OpKind::kArrDupElim: return "ARR_DE";
    case OpKind::kArrCross: return "ARR_CROSS";
    case OpKind::kRef: return "REF";
    case OpKind::kDeref: return "DEREF";
    case OpKind::kComp: return "COMP";
    case OpKind::kArith: return "ARITH";
    case OpKind::kAgg: return "AGG";
    case OpKind::kMethodCall: return "METHOD";
    case OpKind::kHashJoin: return "HASH_JOIN";
    case OpKind::kIndexProbe: return "IDX_PROBE";
    case OpKind::kIndexJoin: return "IDX_JOIN";
  }
  return "?";
}

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kIn: return "in";
  }
  return "?";
}

PredicatePtr Predicate::Atom(ExprPtr lhs, CmpOp cmp, ExprPtr rhs) {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kAtom;
  p->cmp = cmp;
  p->lhs = std::move(lhs);
  p->rhs = std::move(rhs);
  return p;
}

PredicatePtr Predicate::And(PredicatePtr a, PredicatePtr b) {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kAnd;
  p->a = std::move(a);
  p->b = std::move(b);
  return p;
}

PredicatePtr Predicate::Or(PredicatePtr a, PredicatePtr b) {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kOr;
  p->a = std::move(a);
  p->b = std::move(b);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr a) {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kNot;
  p->a = std::move(a);
  return p;
}

PredicatePtr Predicate::True() {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kTrue;
  return p;
}

bool Predicate::Equals(const Predicate& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kAtom:
      return cmp == other.cmp && lhs->Equals(*other.lhs) &&
             rhs->Equals(*other.rhs);
    case Kind::kAnd:
    case Kind::kOr:
      return a->Equals(*other.a) && b->Equals(*other.b);
    case Kind::kNot:
      return a->Equals(*other.a);
    case Kind::kTrue:
      return true;
  }
  return false;
}

uint64_t Predicate::Hash() const {
  uint64_t h = HashCombine(0x9ced, static_cast<uint64_t>(kind));
  switch (kind) {
    case Kind::kAtom:
      h = HashCombine(h, static_cast<uint64_t>(cmp));
      h = HashCombine(h, lhs->Hash());
      h = HashCombine(h, rhs->Hash());
      break;
    case Kind::kAnd:
    case Kind::kOr:
      h = HashCombine(h, a->Hash());
      h = HashCombine(h, b->Hash());
      break;
    case Kind::kNot:
      h = HashCombine(h, a->Hash());
      break;
    case Kind::kTrue:
      break;
  }
  return h;
}

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kAtom:
      return StrCat(lhs->ToString(), " ", CmpOpToString(cmp), " ",
                    rhs->ToString());
    case Kind::kAnd:
      return StrCat("(", a->ToString(), " and ", b->ToString(), ")");
    case Kind::kOr:
      return StrCat("(", a->ToString(), " or ", b->ToString(), ")");
    case Kind::kNot:
      return StrCat("not (", a->ToString(), ")");
    case Kind::kTrue:
      return "true";
  }
  return "?";
}

ExprPtr MakeExpr(OpKind kind, std::vector<ExprPtr> children, ExprPtr sub,
                 PredicatePtr pred, ValuePtr literal, std::string name,
                 std::vector<std::string> names, std::string type_filter,
                 int64_t index, int64_t lo, int64_t hi, bool index_is_last,
                 bool lo_is_last, bool hi_is_last) {
  auto e = std::make_shared<Expr>(Expr::MakeTag{}, kind);
  auto* m = const_cast<Expr*>(e.get());
  m->children_ = std::move(children);
  m->sub_ = std::move(sub);
  m->pred_ = std::move(pred);
  m->literal_ = std::move(literal);
  m->name_ = std::move(name);
  m->names_ = std::move(names);
  m->type_filter_ = std::move(type_filter);
  m->index_ = index;
  m->lo_ = lo;
  m->hi_ = hi;
  m->index_is_last_ = index_is_last;
  m->lo_is_last_ = lo_is_last;
  m->hi_is_last_ = hi_is_last;
  return e;
}

bool Expr::Equals(const Expr& other) const {
  if (this == &other) return true;
  if (kind_ != other.kind_) return false;
  if (name_ != other.name_ || names_ != other.names_ ||
      type_filter_ != other.type_filter_ || index_ != other.index_ ||
      lo_ != other.lo_ || hi_ != other.hi_ ||
      index_is_last_ != other.index_is_last_ ||
      lo_is_last_ != other.lo_is_last_ || hi_is_last_ != other.hi_is_last_) {
    return false;
  }
  if ((literal_ == nullptr) != (other.literal_ == nullptr)) return false;
  if (literal_ != nullptr && !literal_->Equals(*other.literal_)) return false;
  if ((sub_ == nullptr) != (other.sub_ == nullptr)) return false;
  if (sub_ != nullptr && !sub_->Equals(*other.sub_)) return false;
  if ((pred_ == nullptr) != (other.pred_ == nullptr)) return false;
  if (pred_ != nullptr && !pred_->Equals(*other.pred_)) return false;
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

uint64_t Expr::Hash() const {
  uint64_t h = HashCombine(0xa16eb7a, static_cast<uint64_t>(kind_));
  h = HashCombine(h, HashString(name_));
  for (const auto& n : names_) h = HashCombine(h, HashString(n));
  h = HashCombine(h, HashString(type_filter_));
  h = HashCombine(h, static_cast<uint64_t>(index_));
  h = HashCombine(h, static_cast<uint64_t>(lo_));
  h = HashCombine(h, static_cast<uint64_t>(hi_));
  h = HashCombine(h, (index_is_last_ ? 1 : 0) | (lo_is_last_ ? 2 : 0) |
                         (hi_is_last_ ? 4 : 0));
  if (literal_ != nullptr) h = HashCombine(h, literal_->Hash());
  if (sub_ != nullptr) h = HashCombine(h, sub_->Hash());
  if (pred_ != nullptr) h = HashCombine(h, pred_->Hash());
  for (const auto& c : children_) h = HashCombine(h, c->Hash());
  return h;
}

namespace {

std::string ParamString(const Expr& e) {
  switch (e.kind()) {
    case OpKind::kConst:
      return e.literal()->ToString();
    case OpKind::kVar:
      return e.name();
    case OpKind::kParam:
      return StrCat("$", e.index());
    case OpKind::kTupExtract:
    case OpKind::kAgg:
    case OpKind::kMethodCall:
    case OpKind::kArith:
    case OpKind::kIndexProbe:
    case OpKind::kIndexJoin:
      return e.name();
    case OpKind::kRef:
      return e.name();
    case OpKind::kProject:
      return Join(e.names(), ",");
    case OpKind::kArrExtract:
      return e.index_is_last() ? "last" : StrCat(e.index());
    case OpKind::kSubArr:
      return StrCat(e.lo_is_last() ? "last" : StrCat(e.lo()), ",",
                    e.hi_is_last() ? "last" : StrCat(e.hi()));
    case OpKind::kSetApply:
      return e.type_filter();
    default:
      return "";
  }
}

}  // namespace

std::string Expr::ToString() const {
  std::string head = OpKindToString(kind_);
  std::string param = ParamString(*this);
  // Physical operators carry both an operand binder and θ; show both.
  std::string subscript;
  if (sub_ != nullptr) subscript = StrCat("[", sub_->ToString(), "]");
  if (pred_ != nullptr) subscript += StrCat("[", pred_->ToString(), "]");
  if (kind_ == OpKind::kInput) return "INPUT";
  if (kind_ == OpKind::kConst) return param;
  if (kind_ == OpKind::kVar) return param;
  if (kind_ == OpKind::kParam) return param;
  std::string args;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) args += ", ";
    args += children_[i]->ToString();
  }
  std::string p;
  if (!param.empty() &&
      (kind_ == OpKind::kTupExtract || kind_ == OpKind::kProject ||
       kind_ == OpKind::kArrExtract || kind_ == OpKind::kSubArr ||
       kind_ == OpKind::kAgg || kind_ == OpKind::kArith ||
       kind_ == OpKind::kMethodCall || kind_ == OpKind::kRef ||
       kind_ == OpKind::kSetApply || kind_ == OpKind::kIndexProbe ||
       kind_ == OpKind::kIndexJoin)) {
    p = StrCat("<", param, ">");
  }
  return StrCat(head, p, subscript, "(", args, ")");
}

namespace {

void TreeString(const Expr& e, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  std::string head = OpKindToString(e.kind());
  std::string param = ParamString(e);
  if (e.kind() == OpKind::kConst || e.kind() == OpKind::kVar ||
      e.kind() == OpKind::kParam) {
    out->append(param);
    out->push_back('\n');
    return;
  }
  out->append(head);
  if (!param.empty()) {
    out->append("<");
    out->append(param);
    out->append(">");
  }
  if (e.sub() != nullptr) {
    out->append("[");
    out->append(e.sub()->ToString());
    out->append("]");
  }
  if (e.pred() != nullptr) {
    out->append("[");
    out->append(e.pred()->ToString());
    out->append("]");
  }
  out->push_back('\n');
  for (const auto& c : e.children()) {
    TreeString(*c, depth + 1, out);
  }
}

}  // namespace

std::string Expr::ToTreeString() const {
  std::string out;
  TreeString(*this, 0, &out);
  return out;
}

ExprPtr Expr::WithChild(size_t i, ExprPtr replacement) const {
  std::vector<ExprPtr> children = children_;
  children[i] = std::move(replacement);
  return WithChildren(std::move(children));
}

ExprPtr Expr::WithChildren(std::vector<ExprPtr> children) const {
  return MakeExpr(kind_, std::move(children), sub_, pred_, literal_, name_,
                  names_, type_filter_, index_, lo_, hi_, index_is_last_,
                  lo_is_last_, hi_is_last_);
}

ExprPtr Expr::WithSub(ExprPtr sub) const {
  return MakeExpr(kind_, children_, std::move(sub), pred_, literal_, name_,
                  names_, type_filter_, index_, lo_, hi_, index_is_last_,
                  lo_is_last_, hi_is_last_);
}

namespace {

int64_t PredNodeCount(const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kAtom:
      return 1 + p.lhs->NodeCount() + p.rhs->NodeCount();
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return 1 + PredNodeCount(*p.a) + PredNodeCount(*p.b);
    case Predicate::Kind::kNot:
      return 1 + PredNodeCount(*p.a);
    case Predicate::Kind::kTrue:
      return 1;
  }
  return 1;
}

}  // namespace

int64_t Expr::NodeCount() const {
  int64_t n = 1;
  for (const auto& c : children_) n += c->NodeCount();
  if (sub_ != nullptr) n += sub_->NodeCount();
  if (pred_ != nullptr) n += PredNodeCount(*pred_);
  return n;
}

}  // namespace excess
