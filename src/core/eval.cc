#include "core/eval.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "core/analysis.h"
#include "core/kernels.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace excess {

namespace {

/// Occurrences a produced value represents: multiset total count, array
/// length, 1 for everything else (scalars, tuples, refs, nulls).
int64_t OutOccurrences(const ValuePtr& v) {
  if (v == nullptr) return 0;
  if (v->is_set()) return v->TotalCount();
  if (v->is_array()) return v->ArrayLength();
  return 1;
}

}  // namespace

int64_t EvalStats::TotalInvocations() const {
  int64_t n = 0;
  for (auto v : invocations) n += v;
  return n;
}

int64_t EvalStats::TotalOccurrences() const {
  int64_t n = 0;
  for (auto v : occurrences) n += v;
  return n;
}

int64_t EvalStats::TotalNanos() const {
  int64_t n = 0;
  for (auto v : nanos) n += v;
  return n;
}

void EvalStats::Merge(const EvalStats& other) {
  for (int i = 0; i < kNumOpKinds; ++i) {
    invocations[i] += other.invocations[i];
    occurrences[i] += other.occurrences[i];
    nanos[i] += other.nanos[i];
  }
  predicate_atoms += other.predicate_atoms;
  derefs += other.derefs;
  peak_bytes = std::max(peak_bytes, other.peak_bytes);
}

std::string EvalStats::ToString() const {
  std::string out;
  for (int i = 0; i < kNumOpKinds; ++i) {
    if (invocations[i] == 0) continue;
    out += StrCat(OpKindToString(static_cast<OpKind>(i)), ": ", invocations[i],
                  " calls");
    if (occurrences[i] > 0) out += StrCat(", ", occurrences[i], " occurrences");
    if (nanos[i] > 0) out += StrCat(", ", nanos[i] / 1000, " us");
    out += "\n";
  }
  out += StrCat("predicate atoms: ", predicate_atoms, "\n");
  out += StrCat("derefs: ", derefs, "\n");
  if (peak_bytes > 0) out += StrCat("peak bytes: ", peak_bytes, "\n");
  return out;
}

Result<ValuePtr> Evaluator::Eval(const ExprPtr& expr) {
  if (expr == nullptr) return Status::Invalid("Eval on null expression");
  Ctx ctx;
  auto r = EvalNode(*expr, ctx);
  if (governor_ != nullptr) {
    stats_.peak_bytes = std::max(stats_.peak_bytes, governor_->peak_bytes());
  }
  return r;
}

Result<ValuePtr> Evaluator::EvalWithInput(const ExprPtr& expr,
                                          const ValuePtr& input) {
  if (expr == nullptr) return Status::Invalid("Eval on null expression");
  Ctx ctx;
  ctx.input = input;
  auto r = EvalNode(*expr, ctx);
  if (governor_ != nullptr) {
    stats_.peak_bytes = std::max(stats_.peak_bytes, governor_->peak_bytes());
  }
  return r;
}

Result<ValuePtr> Evaluator::EvalNode(const Expr& e, const Ctx& ctx) {
  // Every node entry is a governor checkpoint: cancellation and deadlines
  // are observed even deep inside subscript evaluation, and the recursion
  // cap turns builder-made pathological plans into a typed error instead of
  // a stack overflow.
  if (depth_ >= max_depth_) {
    return Status::ResourceExhausted(
        StrCat("eval recursion depth exceeds ", max_depth_));
  }
  if (governor_ != nullptr) {
    Status s = governor_->Checkpoint();
    if (!s.ok()) return s;
  }
  ++depth_;
  auto r = timing_enabled_ ? EvalNodeTimed(e, ctx) : EvalNodeImpl(e, ctx);
  --depth_;
  if (r.ok()) {
    Status s = ChargeFresh(*r);
    if (!s.ok()) return s;
    if (profile_ != nullptr) {
      profile_->At(&e).out_occurrences += OutOccurrences(*r);
    }
  }
  return r;
}

Result<ValuePtr> Evaluator::EvalNodeTimed(const Expr& e, const Ctx& ctx) {
  auto t0 = std::chrono::steady_clock::now();
  // Children report their inclusive time through child_time_ns_; this
  // node's self time is its inclusive span minus what children consumed.
  int64_t saved = child_time_ns_;
  child_time_ns_ = 0;
  auto r = EvalNodeImpl(e, ctx);
  int64_t dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  stats_.nanos[static_cast<int>(e.kind())] += dt - child_time_ns_;
  if (profile_ != nullptr) profile_->At(&e).self_nanos += dt - child_time_ns_;
  child_time_ns_ = saved + dt;
  return r;
}

bool Evaluator::ShouldParallelize(const Expr& e, size_t n) const {
  return parallel_enabled_ && n >= parallel_threshold_ &&
         WorkerPool::Instance().size() > 1 &&
         analysis::IsParallelSafe(e.sub());
}

Status Evaluator::ParallelMap(const ExprPtr& sub, const Ctx& ctx,
                              const std::vector<ValuePtr>& inputs,
                              std::vector<ValuePtr>* outputs) {
  outputs->assign(inputs.size(), nullptr);
  WorkerPool& pool = WorkerPool::Instance();
  const int max_parts = pool.size();
  std::vector<EvalStats> worker_stats(static_cast<size_t>(max_parts));
  std::vector<PlanProfile> worker_profiles(
      profile_ != nullptr ? static_cast<size_t>(max_parts) : 0);
  std::vector<Status> worker_status(static_cast<size_t>(max_parts),
                                    Status::OK());
  std::atomic<bool> failed{false};
  int parts_used = pool.ParallelFor(
      inputs.size(), /*min_chunk=*/64,
      [&](int part, size_t begin, size_t end) {
        Evaluator worker(db_, methods_);
        worker.parallel_enabled_ = false;  // no nested fan-out
        // Workers share the query's governor, so budgets and cancellation
        // are global across the batch; each worker trips on its own next
        // checkpoint and the ParallelFor barrier drains the rest.
        worker.governor_ = governor_;
        worker.max_depth_ = max_depth_;
        worker.timing_enabled_ = timing_enabled_;
        // Private per-worker profile over the shared subscript tree; the
        // stable Expr addresses make the pointer-keyed merge exact.
        if (profile_ != nullptr) {
          worker.profile_ = &worker_profiles[static_cast<size_t>(part)];
        }
        Ctx inner = ctx;
        for (size_t i = begin; i < end; ++i) {
          if (failed.load(std::memory_order_relaxed)) break;
          if (governor_ != nullptr) {
            Status s = governor_->Checkpoint(1);
            if (!s.ok()) {
              worker_status[static_cast<size_t>(part)] = s;
              failed.store(true, std::memory_order_relaxed);
              break;
            }
          }
          inner.input = inputs[i];
          auto r = worker.EvalNode(*sub, inner);
          if (!r.ok()) {
            worker_status[static_cast<size_t>(part)] = r.status();
            failed.store(true, std::memory_order_relaxed);
            break;
          }
          (*outputs)[i] = std::move(*r);
        }
        worker_stats[static_cast<size_t>(part)] = worker.stats_;
      });
  for (const auto& ws : worker_stats) stats_.Merge(ws);
  for (const auto& wp : worker_profiles) profile_->Merge(wp);
  {
    // Batch utilization: how many partitions each parallel APPLY actually
    // fanned out to, and how many items it covered.
    static obs::Histogram* partitions =
        obs::MetricsRegistry::Global().GetHistogram("parallel.partitions");
    static obs::Counter* batches =
        obs::MetricsRegistry::Global().GetCounter("parallel.batches");
    static obs::Counter* items =
        obs::MetricsRegistry::Global().GetCounter("parallel.items");
    partitions->Observe(parts_used);
    batches->Increment();
    items->Increment(static_cast<int64_t>(inputs.size()));
  }
  // Deterministic error selection: lowest partition wins, so the reported
  // failure does not depend on thread scheduling.
  for (const auto& st : worker_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Result<ValuePtr> Evaluator::EvalSetApply(const Expr& e, const ValuePtr& in,
                                         const Ctx& ctx) {
  if (!in->is_set()) {
    return Status::TypeError(StrCat("SET_APPLY requires a multiset input, got ",
                                    ValueKindToString(in->kind())));
  }
  Count(e, in->TotalCount());
  const std::string& filter = e.type_filter();
  // A typed SET_APPLY (§4) may serve several exact types with one scan when
  // they share an implementation ("Person,Student"); split once per call.
  std::vector<std::string> accepted;
  if (!filter.empty()) {
    size_t start = 0;
    while (start <= filter.size()) {
      size_t comma = filter.find(',', start);
      if (comma == std::string::npos) {
        accepted.push_back(filter.substr(start));
        break;
      }
      accepted.push_back(filter.substr(start, comma - start));
      start = comma + 1;
    }
  }
  // Collect the surviving entries first so the parallel path can partition
  // them; the serial path walks the same list.
  std::vector<const SetEntry*> live;
  live.reserve(in->entries().size());
  for (const auto& entry : in->entries()) {
    if (!accepted.empty()) {
      // §4: a typed SET_APPLY processes only objects exactly of a listed
      // type; all others are ignored.
      std::string exact = db_->store().ExactTypeOf(entry.value);
      bool match = false;
      for (const auto& t : accepted) {
        if (t == exact) {
          match = true;
          break;
        }
      }
      if (!match) continue;
    }
    live.push_back(&entry);
  }
  std::vector<SetEntry> out;
  out.reserve(live.size());
  if (ShouldParallelize(e, live.size())) {
    std::vector<ValuePtr> inputs;
    inputs.reserve(live.size());
    for (const SetEntry* entry : live) inputs.push_back(entry->value);
    std::vector<ValuePtr> mapped;
    EXA_RETURN_NOT_OK(ParallelMap(e.sub(), ctx, inputs, &mapped));
    for (size_t i = 0; i < live.size(); ++i) {
      out.push_back({std::move(mapped[i]), live[i]->count});
    }
    return Value::SetOfCounted(std::move(out));
  }
  // Occurrence accounting is batched; cancellation / deadline are still
  // polled per element by the subscript's EvalNode entry checkpoint.
  GovernorBatch batch(governor_);
  for (const SetEntry* entry : live) {
    EXA_RETURN_NOT_OK(batch.Tick());
    Ctx inner = ctx;
    inner.input = entry->value;
    EXA_ASSIGN_OR_RETURN(ValuePtr mapped, EvalNode(*e.sub(), inner));
    out.push_back({std::move(mapped), entry->count});
  }
  EXA_RETURN_NOT_OK(batch.Flush());
  return Value::SetOfCounted(std::move(out));
}

Result<ValuePtr> Evaluator::EvalGroup(const Expr& e, const ValuePtr& in,
                                      const Ctx& ctx) {
  if (!in->is_set()) {
    return Status::TypeError(StrCat("GRP requires a multiset input, got ",
                                    ValueKindToString(in->kind())));
  }
  Count(e, in->TotalCount());
  // Partition occurrences into equivalence classes keyed by the subscript
  // expression's result. Group order follows first appearance, which is
  // irrelevant to multiset equality.
  std::unordered_map<ValuePtr, size_t, ValuePtrDeepHash, ValuePtrDeepEq> index;
  std::vector<std::vector<SetEntry>> groups;
  GovernorBatch batch(governor_);
  for (const auto& entry : in->entries()) {
    EXA_RETURN_NOT_OK(batch.Tick());
    Ctx inner = ctx;
    inner.input = entry.value;
    EXA_ASSIGN_OR_RETURN(ValuePtr key, EvalNode(*e.sub(), inner));
    auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(std::move(key), groups.size());
      groups.push_back({entry});
    } else {
      groups[it->second].push_back(entry);
    }
  }
  EXA_RETURN_NOT_OK(batch.Flush());
  std::vector<SetEntry> out;
  out.reserve(groups.size());
  for (auto& g : groups) {
    ValuePtr group = Value::SetOfCounted(std::move(g));
    EXA_RETURN_NOT_OK(ChargeFresh(group));
    out.push_back({std::move(group), 1});
  }
  return Value::SetOfCounted(std::move(out));
}

Result<ValuePtr> Evaluator::EvalArrApply(const Expr& e, const ValuePtr& in,
                                         const Ctx& ctx) {
  if (!in->is_array()) {
    return Status::TypeError(StrCat("ARR_APPLY requires an array input, got ",
                                    ValueKindToString(in->kind())));
  }
  Count(e, in->ArrayLength());
  if (ShouldParallelize(e, in->elems().size())) {
    std::vector<ValuePtr> mapped;
    EXA_RETURN_NOT_OK(ParallelMap(e.sub(), ctx, in->elems(), &mapped));
    return Value::ArrayOf(std::move(mapped));
  }
  std::vector<ValuePtr> out;
  out.reserve(in->elems().size());
  GovernorBatch batch(governor_);
  for (const auto& elem : in->elems()) {
    EXA_RETURN_NOT_OK(batch.Tick());
    Ctx inner = ctx;
    inner.input = elem;
    EXA_ASSIGN_OR_RETURN(ValuePtr mapped, EvalNode(*e.sub(), inner));
    out.push_back(std::move(mapped));
  }
  EXA_RETURN_NOT_OK(batch.Flush());
  return Value::ArrayOf(std::move(out));
}

Result<ValuePtr> Evaluator::EvalArith(const ValuePtr& a, const ValuePtr& b,
                                      const std::string& op) {
  if (a->is_dne() || b->is_dne()) return Value::Dne();
  if (a->is_unk() || b->is_unk()) return Value::Unk();
  if (!a->IsNumeric() || !b->IsNumeric()) {
    if (op == "+" && a->kind() == ValueKind::kString &&
        b->kind() == ValueKind::kString) {
      return Value::Str(a->as_string() + b->as_string());
    }
    return Status::TypeError(StrCat("arithmetic '", op,
                                    "' on non-numeric operands ", a->ToString(),
                                    ", ", b->ToString()));
  }
  bool ints = a->kind() == ValueKind::kInt && b->kind() == ValueKind::kInt;
  if (op == "%") {
    if (!ints) return Status::TypeError("'%' requires integer operands");
    if (b->as_int() == 0) return Status::EvalError("modulo by zero");
    return Value::Int(a->as_int() % b->as_int());
  }
  if (ints) {
    int64_t x = a->as_int();
    int64_t y = b->as_int();
    if (op == "+") return Value::Int(x + y);
    if (op == "-") return Value::Int(x - y);
    if (op == "*") return Value::Int(x * y);
    if (op == "/") {
      if (y == 0) return Status::EvalError("division by zero");
      return Value::Int(x / y);
    }
  } else {
    double x = a->NumericValue();
    double y = b->NumericValue();
    if (op == "+") return Value::Float(x + y);
    if (op == "-") return Value::Float(x - y);
    if (op == "*") return Value::Float(x * y);
    if (op == "/") {
      if (y == 0) return Status::EvalError("division by zero");
      return Value::Float(x / y);
    }
  }
  return Status::NotFound(StrCat("unknown arithmetic operator '", op, "'"));
}

Result<ValuePtr> Evaluator::EvalMethodCall(const Expr& e,
                                           std::vector<ValuePtr> vals,
                                           const Ctx& ctx) {
  (void)ctx;
  if (methods_ == nullptr) {
    return Status::Unsupported(
        StrCat("method call '", e.name(), "' with no MethodResolver attached"));
  }
  ValuePtr receiver = vals[0];
  if (receiver->is_null()) return receiver;
  // A method defined on T may be invoked through a `ref T` as well; the
  // implicit deref mirrors EXCESS's uniform dot notation.
  if (receiver->is_ref()) {
    EXA_ASSIGN_OR_RETURN(receiver, db_->store().Deref(receiver->oid()));
    ++stats_.derefs;
  }
  std::vector<ValuePtr> args(vals.begin() + 1, vals.end());
  std::string exact = db_->store().ExactTypeOf(receiver);
  EXA_ASSIGN_OR_RETURN(ExprPtr body, methods_->Resolve(exact, e.name()));
  Ctx inner;
  inner.input = receiver;
  inner.params = &args;
  return EvalNode(*body, inner);
}

Result<ValuePtr> Evaluator::EvalNodeImpl(const Expr& e, const Ctx& ctx) {
  // Leaves first (they have no data children), then operators that bind
  // INPUT in some children and so must not evaluate them eagerly.
  switch (e.kind()) {
    case OpKind::kInput:
      Count(e);
      if (ctx.input == nullptr) {
        return Status::EvalError("INPUT used outside an apply/COMP context");
      }
      return ctx.input;
    case OpKind::kConst:
      Count(e);
      return e.literal();
    case OpKind::kVar:
      Count(e);
      return db_->NamedValue(e.name());
    case OpKind::kParam:
      Count(e);
      if (ctx.params == nullptr ||
          e.index() >= static_cast<int64_t>(ctx.params->size())) {
        return Status::EvalError(
            StrCat("method parameter $", e.index(), " is unbound"));
      }
      return (*ctx.params)[static_cast<size_t>(e.index())];
    case OpKind::kHashJoin:
      // Children 2/3 are per-element key binders, not data inputs.
      return EvalHashJoin(e, ctx);
    case OpKind::kIndexProbe:
      // Child 0 is the closed probe; sub() and θ bind per-element INPUT.
      return EvalIndexProbe(e, ctx);
    case OpKind::kIndexJoin:
      // Like HASH_JOIN, but the indexed data child is served from a
      // secondary index and may never be evaluated at all.
      return EvalIndexJoin(e, ctx);
    default:
      break;
  }

  // Evaluate all data children once, then apply uniform strict null
  // propagation: a null data input yields that null (dne dominating unk).
  // This makes the composition rules (15, 26, 27) and DEREF(REF(A)) = A
  // exact in the presence of nulls: an occurrence a multiset would drop
  // corresponds to a poisoned pipeline on the composed side. kArith
  // implements its own null handling with identical semantics.
  std::vector<ValuePtr> vals;
  vals.reserve(e.num_children());
  ValuePtr null_seen;
  for (const auto& c : e.children()) {
    EXA_ASSIGN_OR_RETURN(ValuePtr v, EvalNode(*c, ctx));
    if (v->is_dne()) null_seen = v;  // dne dominates
    if (v->is_unk() && (null_seen == nullptr || !null_seen->is_dne())) {
      null_seen = v;
    }
    vals.push_back(std::move(v));
  }
  if (null_seen != nullptr && e.kind() != OpKind::kArith &&
      e.kind() != OpKind::kMethodCall) {
    Count(e);
    return null_seen;
  }

  switch (e.kind()) {
    case OpKind::kAddUnion:
      Count(e, vals[0]->is_set() && vals[1]->is_set()
                   ? vals[0]->TotalCount() + vals[1]->TotalCount()
                   : 0);
      return kernels::AddUnion(vals[0], vals[1], governor_);
    case OpKind::kSetMake:
      Count(e);
      return Value::SetOf({vals[0]});
    case OpKind::kSetApply:
      return EvalSetApply(e, vals[0], ctx);
    case OpKind::kGroup:
      return EvalGroup(e, vals[0], ctx);
    case OpKind::kDupElim:
      Count(e, vals[0]->is_set() ? vals[0]->TotalCount() : 0);
      return kernels::DupElim(vals[0], governor_);
    case OpKind::kDiff:
      Count(e, vals[0]->is_set() && vals[1]->is_set()
                   ? vals[0]->TotalCount() + vals[1]->TotalCount()
                   : 0);
      return kernels::Diff(vals[0], vals[1], governor_);
    case OpKind::kCross:
      Count(e, vals[0]->is_set() && vals[1]->is_set()
                   ? vals[0]->TotalCount() * vals[1]->TotalCount()
                   : 0);
      return kernels::Cross(vals[0], vals[1], governor_);
    case OpKind::kSetCollapse:
      Count(e, vals[0]->is_set() ? vals[0]->TotalCount() : 0);
      return kernels::SetCollapse(vals[0], governor_);

    case OpKind::kProject:
      Count(e);
      return kernels::Project(e.names(), vals[0]);
    case OpKind::kTupCat:
      Count(e);
      return kernels::TupCat(vals[0], vals[1]);
    case OpKind::kTupExtract:
      Count(e);
      if (!vals[0]->is_tuple()) {
        return Status::TypeError(StrCat("TUP_EXTRACT<", e.name(),
                                        "> on non-tuple ",
                                        ValueKindToString(vals[0]->kind())));
      }
      return vals[0]->Field(e.name());
    case OpKind::kTupMake:
      Count(e);
      // An optional name() labels the single field (default "_1"); rule 26
      // uses this to materialize a named enrichment field.
      return Value::Tuple({e.name().empty() ? "_1" : e.name()}, {vals[0]});

    case OpKind::kArrMake:
      Count(e);
      return Value::ArrayOf({vals[0]});
    case OpKind::kArrExtract: {
      Count(e);
      if (!vals[0]->is_array()) {
        return Status::TypeError(StrCat("ARR_EXTRACT on non-array ",
                                        ValueKindToString(vals[0]->kind())));
      }
      int64_t idx = e.index_is_last() ? vals[0]->ArrayLength() : e.index();
      return kernels::ArrExtract(idx, vals[0]);
    }
    case OpKind::kArrApply:
      return EvalArrApply(e, vals[0], ctx);
    case OpKind::kSubArr: {
      if (!vals[0]->is_array()) {
        return Status::TypeError(StrCat("SUBARR on non-array ",
                                        ValueKindToString(vals[0]->kind())));
      }
      Count(e, vals[0]->ArrayLength());
      int64_t lo = e.lo_is_last() ? vals[0]->ArrayLength() : e.lo();
      int64_t hi = e.hi_is_last() ? vals[0]->ArrayLength() : e.hi();
      return kernels::SubArr(lo, hi, vals[0], governor_);
    }
    case OpKind::kArrCat:
      Count(e, (vals[0]->is_array() ? vals[0]->ArrayLength() : 0) +
                   (vals[1]->is_array() ? vals[1]->ArrayLength() : 0));
      return kernels::ArrCat(vals[0], vals[1], governor_);
    case OpKind::kArrCollapse:
      Count(e, vals[0]->is_array() ? vals[0]->ArrayLength() : 0);
      return kernels::ArrCollapse(vals[0], governor_);
    case OpKind::kArrDiff:
      Count(e, (vals[0]->is_array() ? vals[0]->ArrayLength() : 0) +
                   (vals[1]->is_array() ? vals[1]->ArrayLength() : 0));
      return kernels::ArrDiff(vals[0], vals[1], governor_);
    case OpKind::kArrDupElim:
      Count(e, vals[0]->is_array() ? vals[0]->ArrayLength() : 0);
      return kernels::ArrDupElim(vals[0], governor_);
    case OpKind::kArrCross:
      Count(e, vals[0]->is_array() && vals[1]->is_array()
                   ? vals[0]->ArrayLength() * vals[1]->ArrayLength()
                   : 0);
      return kernels::ArrCross(vals[0], vals[1], governor_);

    case OpKind::kRef: {
      Count(e);
      std::string target = e.name();
      if (target.empty()) target = db_->store().ExactTypeOf(vals[0]);
      EXA_ASSIGN_OR_RETURN(Oid oid, db_->store().InternRef(target, vals[0]));
      return Value::RefTo(oid);
    }
    case OpKind::kDeref: {
      Count(e);
      if (!vals[0]->is_ref()) {
        return Status::TypeError(StrCat("DEREF on non-reference ",
                                        ValueKindToString(vals[0]->kind())));
      }
      ++stats_.derefs;
      return db_->store().Deref(vals[0]->oid());
    }

    case OpKind::kComp: {
      Count(e);
      Ctx inner = ctx;
      inner.input = vals[0];
      EXA_ASSIGN_OR_RETURN(Truth t, EvalPred(*e.pred(), inner));
      switch (t) {
        case Truth::kTrue:
          return vals[0];
        case Truth::kUnk:
          return Value::Unk();
        case Truth::kFalse:
          return Value::Dne();
      }
      return Status::Internal("unreachable truth value");
    }

    case OpKind::kArith:
      Count(e);
      return EvalArith(vals[0], vals[1], e.name());
    case OpKind::kAgg:
      Count(e, vals[0]->is_set() ? vals[0]->TotalCount() : 0);
      return kernels::Aggregate(e.name(), vals[0], governor_);
    case OpKind::kMethodCall:
      Count(e);
      return EvalMethodCall(e, std::move(vals), ctx);

    case OpKind::kInput:
    case OpKind::kConst:
    case OpKind::kVar:
    case OpKind::kParam:
    case OpKind::kHashJoin:
    case OpKind::kIndexProbe:
    case OpKind::kIndexJoin:
      break;  // handled above
  }
  return Status::Internal("unknown operator kind");
}

Status Evaluator::EmitComp(const Expr& e, ValuePtr elem, int64_t count,
                           const Ctx& ctx, std::vector<SetEntry>* out) {
  if (e.sub() != nullptr) {
    Ctx inner = ctx;
    inner.input = std::move(elem);
    EXA_ASSIGN_OR_RETURN(elem, EvalNode(*e.sub(), inner));
    if (elem->is_dne()) return Status::OK();  // multiset construction drops it
    if (elem->is_unk()) {
      out->push_back({std::move(elem), count});
      return Status::OK();
    }
  }
  Ctx pin = ctx;
  pin.input = elem;
  EXA_ASSIGN_OR_RETURN(Truth t, EvalPred(*e.pred(), pin));
  if (t == Truth::kTrue) {
    out->push_back({std::move(elem), count});
  } else if (t == Truth::kUnk) {
    out->push_back({Value::Unk(), count});
  }
  return Status::OK();
}

Result<ValuePtr> Evaluator::EvalHashJoin(const Expr& e, const Ctx& ctx) {
  EXA_ASSIGN_OR_RETURN(ValuePtr va, EvalNode(*e.child(0), ctx));
  EXA_ASSIGN_OR_RETURN(ValuePtr vb, EvalNode(*e.child(1), ctx));
  // Uniform strict null propagation, as in the generic operator path.
  if (va->is_dne() || vb->is_dne()) {
    Count(e);
    return Value::Dne();
  }
  if (va->is_unk() || vb->is_unk()) {
    Count(e);
    return Value::Unk();
  }
  if (!va->is_set() || !vb->is_set()) {
    return Status::TypeError(StrCat("HASH_JOIN requires multiset inputs, got ",
                                    ValueKindToString(va->kind()), " and ",
                                    ValueKindToString(vb->kind())));
  }
  Count(e, va->TotalCount() + vb->TotalCount());
  if (va->entries().empty() || vb->entries().empty()) {
    return Value::EmptySet();
  }

  static obs::Counter* m_nested_loop =
      obs::MetricsRegistry::Global().GetCounter("hashjoin.nested_loop");
  static obs::Counter* m_builds =
      obs::MetricsRegistry::Global().GetCounter("hashjoin.builds");
  static obs::Counter* m_build_entries =
      obs::MetricsRegistry::Global().GetCounter("hashjoin.build_entries");
  static obs::Counter* m_probe_entries =
      obs::MetricsRegistry::Global().GetCounter("hashjoin.probe_entries");
  static obs::Counter* m_pairs =
      obs::MetricsRegistry::Global().GetCounter("hashjoin.pairs_tested");
  static obs::Histogram* m_chain =
      obs::MetricsRegistry::Global().GetHistogram("hashjoin.chain_length");
  int64_t pairs_tested = 0;

  std::vector<SetEntry> out;
  // Runs the full COMP_θ(opnd) on one (a, b) pair; this is what makes the
  // operator answer-equal to SET_APPLY[COMP_θ(opnd)](CROSS).
  GovernorBatch batch(governor_);
  int64_t pair_bytes = -1, pending_bytes = 0;
  auto emit_pair = [&](const SetEntry& ea, const SetEntry& eb) -> Status {
    ++pairs_tested;
    ValuePtr pair = Value::TupleOf({ea.value, eb.value});
    if (governor_ != nullptr) {
      // Every pair tuple has the same shallow shape; size the first one and
      // charge alongside the batched occurrence checkpoints.
      if (pair_bytes < 0) pair_bytes = pair->ShallowSizeBytes();
      pending_bytes += pair_bytes;
      EXA_RETURN_NOT_OK(batch.Tick());
      if (pending_bytes >= 4096) {
        int64_t n = pending_bytes;
        pending_bytes = 0;
        EXA_RETURN_NOT_OK(governor_->ChargeBytes(n));
      }
    }
    return EmitComp(e, std::move(pair), ea.count * eb.count, ctx, &out);
  };

  auto flush_join_budget = [&]() -> Status {
    EXA_RETURN_NOT_OK(batch.Flush());
    if (governor_ != nullptr && pending_bytes > 0) {
      int64_t n = pending_bytes;
      pending_bytes = 0;
      EXA_RETURN_NOT_OK(governor_->ChargeBytes(n));
    }
    return Status::OK();
  };

  // Cost gate: below this the hash build does not pay for itself; run the
  // pairwise loop directly (the cross product is still never materialized).
  constexpr int64_t kNestedLoopMax = 16;
  if (std::min(va->DistinctCount(), vb->DistinctCount()) <= kNestedLoopMax) {
    for (const auto& ea : va->entries()) {
      for (const auto& eb : vb->entries()) {
        EXA_RETURN_NOT_OK(emit_pair(ea, eb));
      }
    }
    EXA_RETURN_NOT_OK(flush_join_budget());
    m_nested_loop->Increment();
    m_pairs->Increment(pairs_tested);
    return Value::SetOfCounted(std::move(out));
  }

  // Partition each side by its key: hashable (non-null key), unk-key, and
  // dne-key elements. The hash path only covers hashable × hashable — for
  // those pairs an unequal key makes the equality atom (and so the
  // conjunction θ) false, which is why skipping non-matches is exact.
  // unk-key elements must meet *every* element of the other side (the atom
  // is unk against any key, even dne — EvalAtom checks unk before dne, so
  // θ may still come out unk). dne-key elements only matter against unk
  // keys: against a non-null key the atom is false and the pair drops.
  struct Keyed {
    const SetEntry* entry;
    ValuePtr key;
  };
  auto split_side = [&](const ValuePtr& side, const ExprPtr& key_expr,
                        std::vector<Keyed>* keyed,
                        std::vector<const SetEntry*>* unk_keys,
                        std::vector<const SetEntry*>* dne_keys) -> Status {
    keyed->reserve(side->entries().size());
    for (const auto& entry : side->entries()) {
      Ctx inner = ctx;
      inner.input = entry.value;
      EXA_ASSIGN_OR_RETURN(ValuePtr k, EvalNode(*key_expr, inner));
      if (k->is_dne()) {
        dne_keys->push_back(&entry);
      } else if (k->is_unk()) {
        unk_keys->push_back(&entry);
      } else {
        keyed->push_back({&entry, std::move(k)});
      }
    }
    return Status::OK();
  };
  std::vector<Keyed> ka, kb;
  std::vector<const SetEntry*> ua, ub, da, db;
  EXA_RETURN_NOT_OK(split_side(va, e.child(2), &ka, &ua, &da));
  EXA_RETURN_NOT_OK(split_side(vb, e.child(3), &kb, &ub, &db));

  // Build on the smaller keyed side, probe with the larger.
  const bool build_left = ka.size() <= kb.size();
  const std::vector<Keyed>& build = build_left ? ka : kb;
  const std::vector<Keyed>& probe = build_left ? kb : ka;
  std::unordered_map<ValuePtr, std::vector<const SetEntry*>, ValuePtrDeepHash,
                     ValuePtrDeepEq>
      table;
  table.reserve(build.size());
  for (const auto& k : build) table[k.key].push_back(k.entry);
  m_builds->Increment();
  m_build_entries->Increment(static_cast<int64_t>(build.size()));
  m_probe_entries->Increment(static_cast<int64_t>(probe.size()));
  for (const auto& p : probe) {
    auto it = table.find(p.key);
    if (it == table.end()) continue;
    m_chain->Observe(static_cast<int64_t>(it->second.size()));
    for (const SetEntry* matched : it->second) {
      const SetEntry& ea = build_left ? *matched : *p.entry;
      const SetEntry& eb = build_left ? *p.entry : *matched;
      EXA_RETURN_NOT_OK(emit_pair(ea, eb));
    }
  }
  // unk-key fallback: ua × all of B, then the rest of A × ub (ua × ub is
  // already covered by the first loop).
  for (const SetEntry* a : ua) {
    for (const auto& eb : vb->entries()) {
      EXA_RETURN_NOT_OK(emit_pair(*a, eb));
    }
  }
  for (const SetEntry* b : ub) {
    for (const auto& k : ka) EXA_RETURN_NOT_OK(emit_pair(*k.entry, *b));
    for (const SetEntry* a : da) EXA_RETURN_NOT_OK(emit_pair(*a, *b));
  }
  EXA_RETURN_NOT_OK(flush_join_budget());
  m_pairs->Increment(pairs_tested);
  return Value::SetOfCounted(std::move(out));
}

Result<ValuePtr> Evaluator::ProbeScanFallback(const Expr& e,
                                              const ValuePtr& base,
                                              const Ctx& ctx) {
  // Uniform strict null propagation, as the logical SET_APPLY's operand
  // would trigger in the generic operator path.
  if (base->is_dne() || base->is_unk()) {
    Count(e);
    return base;
  }
  if (!base->is_set()) {
    return Status::TypeError(StrCat("SET_APPLY requires a multiset input, got ",
                                    ValueKindToString(base->kind())));
  }
  Count(e, base->TotalCount());
  std::vector<SetEntry> out;
  GovernorBatch batch(governor_);
  for (const auto& entry : base->entries()) {
    EXA_RETURN_NOT_OK(batch.Tick());
    EXA_RETURN_NOT_OK(EmitComp(e, entry.value, entry.count, ctx, &out));
  }
  EXA_RETURN_NOT_OK(batch.Flush());
  return Value::SetOfCounted(std::move(out));
}

Result<ValuePtr> Evaluator::EvalIndexProbe(const Expr& e, const Ctx& ctx) {
  static obs::Counter* m_probes =
      obs::MetricsRegistry::Global().GetCounter("index.probes");
  static obs::Counter* m_candidates =
      obs::MetricsRegistry::Global().GetCounter("index.probe_candidates");
  static obs::Counter* m_fallbacks =
      obs::MetricsRegistry::Global().GetCounter("index.probe_fallbacks");
  static obs::Histogram* m_bucket =
      obs::MetricsRegistry::Global().GetHistogram("index.bucket_size");

  const std::string& set_name = e.names().at(0);
  const SecondaryIndex* idx = db_->FindIndex(e.name());
  if (idx == nullptr || !idx->Usable() || idx->def().set_name != set_name) {
    // Missing, disabled, or extraction-failed index: exact scan, same answer.
    m_fallbacks->Increment();
    EXA_ASSIGN_OR_RETURN(ValuePtr base, db_->NamedValue(set_name));
    return ProbeScanFallback(e, base, ctx);
  }

  m_probes->Increment();
  // The logical SET_APPLY over an empty base never evaluates its subscript —
  // and so never the probe expression θ embeds. Return before touching it.
  if (idx->entry_total() == 0) {
    Count(e);
    return Value::EmptySet();
  }

  // A two-bound probe has a second child, the interval's upper end.
  ValuePtr probes[2];
  for (size_t i = 0; i < e.num_children(); ++i) {
    auto probe_r = EvalNode(*e.child(i), ctx);
    if (!probe_r.ok()) {
      // θ may short-circuit before its indexed atom on every element (∧
      // stops at the first false conjunct), in which case the logical plan
      // never evaluates the probe expression at all — so a failing probe
      // must not fail the operator outright. The scan reproduces the
      // logical error behavior exactly; a governor trip re-trips on its
      // first checkpoint.
      m_fallbacks->Increment();
      EXA_ASSIGN_OR_RETURN(ValuePtr base, db_->NamedValue(set_name));
      return ProbeScanFallback(e, base, ctx);
    }
    probes[i] = std::move(*probe_r);
  }
  const ValuePtr& probe = probes[0];

  std::vector<SetEntry> out;
  GovernorBatch batch(governor_);
  int64_t candidates = 0;
  // Skipping a non-matching bucket is exact because its indexed atom is
  // false, which makes the conjunction θ false and COMP yield dne.
  auto emit = [&](const SetEntry& entry) -> Status {
    candidates += entry.count;
    EXA_RETURN_NOT_OK(batch.Tick());
    return EmitComp(e, entry.value, entry.count, ctx, &out);
  };
  auto emit_all = [&](const std::vector<SetEntry>& entries) -> Status {
    for (const auto& entry : entries) EXA_RETURN_NOT_OK(emit(entry));
    return Status::OK();
  };
  // Every element of the base set, straight out of the index partitions.
  auto full_scan = [&]() -> Status {
    if (idx->def().kind == IndexKind::kHash) {
      for (const auto& kv : idx->hash_buckets()) {
        EXA_RETURN_NOT_OK(emit_all(kv.second.entries));
      }
    } else {
      for (const auto& kv : idx->ordered_buckets()) {
        EXA_RETURN_NOT_OK(emit_all(kv.second.entries));
      }
    }
    EXA_RETURN_NOT_OK(emit_all(idx->unk_entries()));
    return emit_all(idx->dne_entries());
  };

  CmpOp cmp = static_cast<CmpOp>(e.index());
  if (cmp == CmpOp::kLt || cmp == CmpOp::kLe || cmp == CmpOp::kGt ||
      cmp == CmpOp::kGe) {
    // One interval from every bound. A dne bound makes its atom false
    // against any non-null key and unk against an unk key: only the unk
    // partition survives. An unk bound opens its end: outside the other,
    // known end that atom is false, so θ is too.
    SecondaryIndex::RangeEnd lo, hi;
    bool dne = false;
    for (size_t i = 0; i < e.num_children(); ++i) {
      const ValuePtr& bound = probes[i];
      CmpOp op = static_cast<CmpOp>(i == 0 ? e.index() : e.hi());
      if (bound->is_dne()) dne = true;
      if (bound->is_null()) continue;
      SecondaryIndex::RangeEnd& end =
          op == CmpOp::kGt || op == CmpOp::kGe ? lo : hi;
      end = {bound, op == CmpOp::kGe || op == CmpOp::kLe};
    }
    std::vector<const SecondaryIndex::Bucket*> range;
    if (dne) {
      EXA_RETURN_NOT_OK(emit_all(idx->unk_entries()));
    } else if (!idx->OrderedRange(lo, hi, &range)) {
      // Every bound unk (each atom is unk against every key, and θ can
      // still come out false through another conjunct), mixed key
      // families or a NaN bound: nothing can be skipped.
      EXA_RETURN_NOT_OK(full_scan());
    } else {
      for (const SecondaryIndex::Bucket* b : range) {
        m_bucket->Observe(static_cast<int64_t>(b->entries.size()));
        EXA_RETURN_NOT_OK(emit_all(b->entries));
      }
      EXA_RETURN_NOT_OK(emit_all(idx->unk_entries()));
    }
  } else if (probe->is_unk()) {
    // The indexed atom is unk against every key; θ can still come out false
    // through another conjunct, so every element must be examined.
    EXA_RETURN_NOT_OK(full_scan());
  } else if (probe->is_dne()) {
    // The atom is false against any non-null key (dne matches nothing) and
    // unk against an unk key: only the unk partition can survive.
    EXA_RETURN_NOT_OK(emit_all(idx->unk_entries()));
  } else if (cmp == CmpOp::kEq) {
    const SecondaryIndex::Bucket* b = idx->EqBucket(probe);
    if (b != nullptr) {
      m_bucket->Observe(static_cast<int64_t>(b->entries.size()));
      EXA_RETURN_NOT_OK(emit_all(b->entries));
    }
    EXA_RETURN_NOT_OK(emit_all(idx->unk_entries()));
  } else if (cmp == CmpOp::kIn && probe->is_set()) {
    // Distinct probe members can land in one ordered bucket (ordered
    // equivalence groups cross-kind numerics); visit each bucket once.
    std::unordered_set<const SecondaryIndex::Bucket*> seen;
    for (const auto& member : probe->entries()) {
      if (member.value->is_unk() || member.value->is_dne()) continue;
      const SecondaryIndex::Bucket* b = idx->EqBucket(member.value);
      if (b == nullptr || !seen.insert(b).second) continue;
      m_bucket->Observe(static_cast<int64_t>(b->entries.size()));
      EXA_RETURN_NOT_OK(emit_all(b->entries));
    }
    EXA_RETURN_NOT_OK(emit_all(idx->unk_entries()));
  } else {
    // 'in' against a non-set raises a per-element type error, which the
    // scan reproduces on the first candidate; != is never lowered to a
    // probe, so examine everything.
    EXA_RETURN_NOT_OK(full_scan());
  }
  // EXPLAIN ANALYZE's in= is the candidates examined, not the indexed set.
  Count(e, candidates);
  EXA_RETURN_NOT_OK(batch.Flush());
  m_candidates->Increment(candidates);
  return Value::SetOfCounted(std::move(out));
}

Result<ValuePtr> Evaluator::EvalIndexJoin(const Expr& e, const Ctx& ctx) {
  static obs::Counter* m_joins =
      obs::MetricsRegistry::Global().GetCounter("index.joins");
  static obs::Counter* m_join_candidates =
      obs::MetricsRegistry::Global().GetCounter("index.join_candidates");
  static obs::Counter* m_fallbacks =
      obs::MetricsRegistry::Global().GetCounter("index.join_fallbacks");

  const size_t indexed_side = e.index() == 0 ? 0 : 1;
  const size_t outer_side = indexed_side == 0 ? 1 : 0;
  const SecondaryIndex* idx = db_->FindIndex(e.name());

  // Re-derive the indexed child's shape: Var(S) serves elements raw; a
  // mapping SET_APPLY(sub, Var(S)) applies `sub` to each candidate.
  const ExprPtr& ichild = e.child(indexed_side);
  std::string set_name;
  ExprPtr transform;
  if (ichild->kind() == OpKind::kVar) {
    set_name = ichild->name();
  } else if (ichild->kind() == OpKind::kSetApply &&
             ichild->type_filter().empty() &&
             ichild->child(0)->kind() == OpKind::kVar) {
    set_name = ichild->child(0)->name();
    transform = ichild->sub();
  }
  if (idx == nullptr || !idx->Usable() || set_name.empty() ||
      idx->def().set_name != set_name) {
    // The children share HASH_JOIN's layout, so the hash path is the exact
    // fallback (it evaluates the indexed child like any other input).
    m_fallbacks->Increment();
    return EvalHashJoin(e, ctx);
  }

  EXA_ASSIGN_OR_RETURN(ValuePtr outer, EvalNode(*e.child(outer_side), ctx));
  if (outer->is_dne()) {
    Count(e);
    return Value::Dne();
  }
  if (outer->is_unk()) {
    Count(e);
    return Value::Unk();
  }
  if (!outer->is_set()) {
    return Status::TypeError(StrCat("IDX_JOIN requires multiset inputs, got ",
                                    ValueKindToString(outer->kind())));
  }
  m_joins->Increment();
  Count(e, outer->TotalCount() + idx->entry_total());
  if (outer->entries().empty() || idx->entry_total() == 0) {
    return Value::EmptySet();
  }

  std::vector<SetEntry> out;
  int64_t candidates = 0;
  GovernorBatch batch(governor_);
  int64_t pair_bytes = -1, pending_bytes = 0;
  // Same contract as EvalHashJoin's emit_pair: the full COMP_θ(opnd) runs
  // on every candidate pair, which keeps the operator answer-equal to
  // SET_APPLY[COMP_θ(opnd)](CROSS) no matter how coarse the bucket match was.
  auto emit_pair = [&](const SetEntry& ea, const SetEntry& eb) -> Status {
    ++candidates;
    ValuePtr pair = Value::TupleOf({ea.value, eb.value});
    if (governor_ != nullptr) {
      if (pair_bytes < 0) pair_bytes = pair->ShallowSizeBytes();
      pending_bytes += pair_bytes;
      EXA_RETURN_NOT_OK(batch.Tick());
      if (pending_bytes >= 4096) {
        int64_t n = pending_bytes;
        pending_bytes = 0;
        EXA_RETURN_NOT_OK(governor_->ChargeBytes(n));
      }
    }
    return EmitComp(e, std::move(pair), ea.count * eb.count, ctx, &out);
  };
  // Candidates come out of the index raw; the indexed child's per-element
  // mapping (if any) runs only on them — never running it over the rest of
  // the base set is the operator's win.
  auto emit_candidate = [&](const SetEntry& outer_entry,
                            const SetEntry& cand) -> Status {
    SetEntry mapped = cand;
    if (transform != nullptr) {
      Ctx inner = ctx;
      inner.input = cand.value;
      EXA_ASSIGN_OR_RETURN(ValuePtr t, EvalNode(*transform, inner));
      // A dne mapping means multiset construction would have dropped this
      // element from the logical side: no pair exists for it.
      if (t->is_dne()) return Status::OK();
      mapped.value = std::move(t);
    }
    return indexed_side == 0 ? emit_pair(mapped, outer_entry)
                             : emit_pair(outer_entry, mapped);
  };

  // Split the outer side by its key binder, as EvalHashJoin does.
  struct Keyed {
    const SetEntry* entry;
    ValuePtr key;
  };
  std::vector<Keyed> keyed;
  std::vector<const SetEntry*> unk_keys, dne_keys;
  keyed.reserve(outer->entries().size());
  for (const auto& entry : outer->entries()) {
    Ctx inner = ctx;
    inner.input = entry.value;
    EXA_ASSIGN_OR_RETURN(ValuePtr k, EvalNode(*e.child(2 + outer_side), inner));
    if (k->is_dne()) {
      dne_keys.push_back(&entry);
    } else if (k->is_unk()) {
      unk_keys.push_back(&entry);
    } else {
      keyed.push_back({&entry, std::move(k)});
    }
  }

  // Partition coverage mirrors EvalHashJoin: keyed outer entries probe their
  // bucket; the index's unk partition meets every outer element (the atom is
  // unk against any key); the index's dne partition only meets unk-keyed
  // outer elements; unk-keyed outer elements meet the whole indexed set.
  for (const auto& k : keyed) {
    const SecondaryIndex::Bucket* b = idx->EqBucket(k.key);
    if (b != nullptr) {
      for (const auto& cand : b->entries) {
        EXA_RETURN_NOT_OK(emit_candidate(*k.entry, cand));
      }
    }
    for (const auto& cand : idx->unk_entries()) {
      EXA_RETURN_NOT_OK(emit_candidate(*k.entry, cand));
    }
  }
  for (const SetEntry* d : dne_keys) {
    for (const auto& cand : idx->unk_entries()) {
      EXA_RETURN_NOT_OK(emit_candidate(*d, cand));
    }
  }
  auto all_indexed = [&](const SetEntry& outer_entry) -> Status {
    if (idx->def().kind == IndexKind::kHash) {
      for (const auto& kv : idx->hash_buckets()) {
        for (const auto& cand : kv.second.entries) {
          EXA_RETURN_NOT_OK(emit_candidate(outer_entry, cand));
        }
      }
    } else {
      for (const auto& kv : idx->ordered_buckets()) {
        for (const auto& cand : kv.second.entries) {
          EXA_RETURN_NOT_OK(emit_candidate(outer_entry, cand));
        }
      }
    }
    for (const auto& cand : idx->unk_entries()) {
      EXA_RETURN_NOT_OK(emit_candidate(outer_entry, cand));
    }
    for (const auto& cand : idx->dne_entries()) {
      EXA_RETURN_NOT_OK(emit_candidate(outer_entry, cand));
    }
    return Status::OK();
  };
  for (const SetEntry* u : unk_keys) {
    EXA_RETURN_NOT_OK(all_indexed(*u));
  }

  EXA_RETURN_NOT_OK(batch.Flush());
  if (governor_ != nullptr && pending_bytes > 0) {
    int64_t n = pending_bytes;
    pending_bytes = 0;
    EXA_RETURN_NOT_OK(governor_->ChargeBytes(n));
  }
  m_join_candidates->Increment(candidates);
  return Value::SetOfCounted(std::move(out));
}

namespace {

Truth Conj(Truth a, Truth b) {
  if (a == Truth::kFalse || b == Truth::kFalse) return Truth::kFalse;
  if (a == Truth::kUnk || b == Truth::kUnk) return Truth::kUnk;
  return Truth::kTrue;
}

Truth Disj(Truth a, Truth b) {
  if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
  if (a == Truth::kUnk || b == Truth::kUnk) return Truth::kUnk;
  return Truth::kFalse;
}

Truth Neg(Truth a) {
  if (a == Truth::kUnk) return Truth::kUnk;
  return a == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
}

}  // namespace

Result<Truth> Evaluator::EvalAtom(const Predicate& p, const Ctx& ctx) {
  ++stats_.predicate_atoms;
  EXA_ASSIGN_OR_RETURN(ValuePtr a, EvalNode(*p.lhs, ctx));
  EXA_ASSIGN_OR_RETURN(ValuePtr b, EvalNode(*p.rhs, ctx));
  // Null semantics (after [Gott88]): unk makes the comparison unknown; dne
  // makes it false (a value that does not exist matches nothing).
  if (a->is_unk() || b->is_unk()) return Truth::kUnk;
  if (a->is_dne() || b->is_dne()) return Truth::kFalse;
  switch (p.cmp) {
    case CmpOp::kEq:
      return a->Equals(*b) ? Truth::kTrue : Truth::kFalse;
    case CmpOp::kNe:
      return a->Equals(*b) ? Truth::kFalse : Truth::kTrue;
    case CmpOp::kIn: {
      if (!b->is_set()) {
        return Status::TypeError(
            StrCat("'in' requires a multiset right-hand side, got ",
                   ValueKindToString(b->kind())));
      }
      return b->CountOf(a) > 0 ? Truth::kTrue : Truth::kFalse;
    }
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe: {
      EXA_ASSIGN_OR_RETURN(int c, Value::Compare(*a, *b));
      switch (p.cmp) {
        case CmpOp::kLt:
          return c < 0 ? Truth::kTrue : Truth::kFalse;
        case CmpOp::kLe:
          return c <= 0 ? Truth::kTrue : Truth::kFalse;
        case CmpOp::kGt:
          return c > 0 ? Truth::kTrue : Truth::kFalse;
        default:
          return c >= 0 ? Truth::kTrue : Truth::kFalse;
      }
    }
  }
  return Status::Internal("unknown comparator");
}

Result<Truth> Evaluator::EvalPred(const Predicate& p, const Ctx& ctx) {
  switch (p.kind) {
    case Predicate::Kind::kAtom:
      return EvalAtom(p, ctx);
    case Predicate::Kind::kAnd: {
      EXA_ASSIGN_OR_RETURN(Truth a, EvalPred(*p.a, ctx));
      if (a == Truth::kFalse) return Truth::kFalse;  // short-circuit
      EXA_ASSIGN_OR_RETURN(Truth b, EvalPred(*p.b, ctx));
      return Conj(a, b);
    }
    case Predicate::Kind::kOr: {
      EXA_ASSIGN_OR_RETURN(Truth a, EvalPred(*p.a, ctx));
      if (a == Truth::kTrue) return Truth::kTrue;  // short-circuit
      EXA_ASSIGN_OR_RETURN(Truth b, EvalPred(*p.b, ctx));
      return Disj(a, b);
    }
    case Predicate::Kind::kNot: {
      EXA_ASSIGN_OR_RETURN(Truth a, EvalPred(*p.a, ctx));
      return Neg(a);
    }
    case Predicate::Kind::kTrue:
      return Truth::kTrue;
  }
  return Status::Internal("unknown predicate kind");
}

}  // namespace excess
