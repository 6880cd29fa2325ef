#include "check/oracle.h"

#include <cmath>
#include <utility>

#include "core/builder.h"
#include "core/eval.h"
#include "core/physical.h"
#include "core/planner.h"
#include "core/rewriter.h"
#include "core/rules.h"
#include "excess/emit.h"
#include "excess/parser.h"
#include "excess/session.h"
#include "methods/registry.h"
#include "util/string_util.h"

namespace excess {
namespace check {

namespace {

/// Seed salts so the four oracles draw independent streams from one base
/// seed (replaying oracle X for seed S never depends on oracle Y's draws).
constexpr uint64_t kRulesSalt = 0x72756c6573ull;      // "rules"
constexpr uint64_t kLoweringSalt = 0x6c6f776572ull;   // "lower"
constexpr uint64_t kRoundTripSalt = 0x726f756e64ull;  // "round"
constexpr uint64_t kFuzzSalt = 0x66757a7aull;         // "fuzz"
constexpr uint64_t kIndexSalt = 0x696e646578ull;      // "index"

constexpr int kPlansPerSeed = 3;

Divergence MakeDivergence(std::string oracle, std::string detail,
                          uint64_t seed, const ExprPtr& before,
                          const ExprPtr& after, std::string message) {
  Divergence d;
  d.oracle = std::move(oracle);
  d.detail = std::move(detail);
  d.seed = seed;
  d.before_tree = before ? before->ToTreeString() : "";
  d.after_tree = after ? after->ToTreeString() : "";
  d.message = std::move(message);
  return d;
}

/// True when some CROSS in `plan` has a closed input that evaluates to an
/// empty multiset — or one whose emptiness cannot be determined (INPUT-free
/// subtrees only; a cross inside a subscript is treated as possibly empty).
/// Gates rules 5/9, whose printed forms assume the discarded side
/// non-empty.
bool MightHaveEmptyCrossInput(Evaluator* ev, const ExprPtr& e) {
  if (e->kind() == OpKind::kCross) {
    for (const auto& c : e->children()) {
      auto v = ev->Eval(c);
      if (!v.ok() || !(*v)->is_set() || (*v)->TotalCount() == 0) return true;
    }
  }
  for (const auto& c : e->children()) {
    if (MightHaveEmptyCrossInput(ev, c)) return true;
  }
  if (e->sub() && MightHaveEmptyCrossInput(ev, e->sub())) return true;
  return false;
}

/// Two-bound IDX_PROBEs must walk tight intervals: each examines exactly
/// the occurrences of its set whose two bound atoms are not false — the
/// interval, the NaN keys that Compare equal to inclusive bounds, and the
/// unk partition — which is what a selection on those two atoms keeps.
/// Checked for probes with constant bounds, served from a usable index and
/// run once, unless the key order cannot place a bound (NaN, or bounds of
/// two families: the probe scans) or the reference selection fails (a
/// cross-family comparison). Returns what went wrong with the first loose
/// probe in `e`, or "".
std::string LooseIntervalProbe(Database& db, const Expr& e,
                               const PlanProfile& profile) {
  for (const auto& c : e.children()) {
    std::string loose = LooseIntervalProbe(db, *c, profile);
    if (!loose.empty()) return loose;
  }
  if (e.sub() != nullptr) {
    std::string loose = LooseIntervalProbe(db, *e.sub(), profile);
    if (!loose.empty()) return loose;
  }
  if (e.kind() != OpKind::kIndexProbe || e.num_children() != 2) return "";
  const SecondaryIndex* idx = db.FindIndex(e.name());
  const NodeProfile* np = profile.Find(&e);
  if (idx == nullptr || !idx->Usable() || np == nullptr ||
      np->invocations != 1) {
    return "";
  }
  int family = -1;
  for (const auto& bound : e.children()) {
    const ValuePtr& v = bound->literal();
    if (v == nullptr) return "";
    if (v->is_null()) continue;
    int f = SecondaryIndex::KeyFamily(*v);
    if (f == 0 || (family >= 0 && f != family) ||
        (f == 1 && std::isnan(v->NumericValue()))) {
      return "";
    }
    family = f;
  }
  ExprPtr key = alg::Path(idx->def().path, alg::Input());
  PredicatePtr bounds = Predicate::And(
      Predicate::Atom(key, static_cast<CmpOp>(e.index()), e.child(0)),
      Predicate::Atom(key, static_cast<CmpOp>(e.hi()), e.child(1)));
  Evaluator ev(&db);
  auto kept = ev.Eval(alg::Select(bounds, alg::Var(idx->def().set_name)));
  if (!kept.ok()) return "";
  if (np->occurrences_in == (*kept)->TotalCount()) return "";
  return StrCat(e.name(), " examined ", np->occurrences_in,
                " occurrences, but ", (*kept)->TotalCount(),
                " satisfy its bounds (", bounds->ToString(), ")");
}

}  // namespace

ExprPtr Decorrelated(const Database& db, const ExprPtr& plan) {
  Rewriter rw(&db,
              RuleSet::Only({"decorrelate-cross", "combine-set-applys"}));
  auto r = rw.Rewrite(plan);
  if (!r.ok() || (*r)->Equals(*plan)) return nullptr;
  return *r;
}

bool ContainsUnk(const ValuePtr& v) {
  if (v->is_unk()) return true;
  if (v->is_tuple()) {
    for (const auto& f : v->field_values()) {
      if (ContainsUnk(f)) return true;
    }
    return false;
  }
  if (v->is_set()) {
    for (const auto& e : v->entries()) {
      if (ContainsUnk(e.value)) return true;
    }
    return false;
  }
  if (v->is_array()) {
    for (const auto& e : v->elems()) {
      if (ContainsUnk(e)) return true;
    }
    return false;
  }
  return false;
}

/// True iff any data the plan reads — Const literals or the current value
/// of any Var it references — contains an unk anywhere. The rule-4 gate:
/// unknown predicates only arise from unk data.
bool PlanDataContainsUnk(const Database& db, const ExprPtr& e) {
  if (e->kind() == OpKind::kConst && e->literal() != nullptr &&
      ContainsUnk(e->literal())) {
    return true;
  }
  if (e->kind() == OpKind::kVar) {
    auto v = db.NamedValue(e->name());
    if (v.ok() && ContainsUnk(*v)) return true;
  }
  for (const auto& c : e->children()) {
    if (PlanDataContainsUnk(db, c)) return true;
  }
  return e->sub() != nullptr && PlanDataContainsUnk(db, e->sub());
}

ValuePtr DropEmptyGroupsDeep(const ValuePtr& v) {
  if (v->is_set()) {
    std::vector<SetEntry> kept;
    for (const auto& e : v->entries()) {
      if (e.value->is_set() && e.value->TotalCount() == 0) continue;
      kept.push_back({DropEmptyGroupsDeep(e.value), e.count});
    }
    return Value::SetOfCounted(std::move(kept));
  }
  if (v->is_array()) {
    std::vector<ValuePtr> elems;
    for (const auto& e : v->elems()) elems.push_back(DropEmptyGroupsDeep(e));
    return Value::ArrayOf(std::move(elems));
  }
  if (v->is_tuple()) {
    std::vector<ValuePtr> vals;
    for (const auto& f : v->field_values()) vals.push_back(DropEmptyGroupsDeep(f));
    return Value::Tuple(v->field_names(), std::move(vals), v->type_tag());
  }
  return v;
}

ValuePtr DerefAll(const Database& db, const ValuePtr& v) {
  if (v->is_ref()) {
    auto obj = db.store().Deref(v->oid());
    if (obj.ok()) return DerefAll(db, *obj);
    return v;  // dangling — keep the ref so the mismatch stays visible
  }
  if (v->is_set()) {
    std::vector<SetEntry> entries;
    for (const auto& e : v->entries()) {
      entries.push_back({DerefAll(db, e.value), e.count});
    }
    return Value::SetOfCounted(std::move(entries));
  }
  if (v->is_array()) {
    std::vector<ValuePtr> elems;
    for (const auto& e : v->elems()) elems.push_back(DerefAll(db, e));
    return Value::ArrayOf(std::move(elems));
  }
  if (v->is_tuple()) {
    std::vector<ValuePtr> vals;
    for (const auto& f : v->field_values()) vals.push_back(DerefAll(db, f));
    return Value::Tuple(v->field_names(), std::move(vals), v->type_tag());
  }
  return v;
}

Status CheckRulesSeed(uint64_t seed, const GenOptions& opts,
                      OracleStats* stats, std::vector<Divergence>* out) {
  Rng rng(seed ^ kRulesSalt);
  Database db;
  GenDb gen;
  EXA_RETURN_NOT_OK(BuildRandomDatabase(&rng, opts, &db, &gen));
  const RuleSet all = RuleSet::All();
  // One extra plan per seed in the EXCESS translator's join shape, drawn
  // last so the arbitrary plans stay those of earlier sweeps.
  for (int p = 0; p <= kPlansPerSeed; ++p) {
    ExprPtr plan = p < kPlansPerSeed ? RandomPlan(&rng, opts, gen)
                                     : RandomTranslatedJoinPlan(&rng, opts, gen);
    ++stats->plans;
    Evaluator ev(&db);
    auto before = ev.Eval(plan);
    if (!before.ok()) {
      ++stats->skipped;
      continue;
    }
    bool cross_may_be_empty = MightHaveEmptyCrossInput(&ev, plan);
    bool answer_has_unk = ContainsUnk(*before);
    bool plan_data_has_unk = PlanDataContainsUnk(db, plan);
    for (const auto& rule : all.rules()) {
      // Documented-deviation gates (DESIGN.md §"Deviations & caveats").
      if ((rule.name == "eliminate-cross-under-de" ||
           rule.name == "group-cross-one-sided") &&
          cross_may_be_empty) {
        ++stats->skipped;
        continue;
      }
      if (rule.name == "combine-comps" && answer_has_unk) {
        ++stats->skipped;
        continue;
      }
      // Documented deviation: splitting σ_{P1∨P2} runs each branch
      // predicate separately, so a branch that comes out unknown mints its
      // own unk occurrence (σ keeps unk) even when the other branch
      // decided the disjunction — changing answers, or feeding unk into
      // aggregates that then error. Exact on unk-free data, which is what
      // we verify.
      if (rule.name == "split-disjunctive-selection" &&
          plan_data_has_unk) {
        ++stats->skipped;
        continue;
      }
      Rewriter rw(&db, RuleSet::Only({rule.name}));
      for (const ExprPtr& neighbor : rw.EnumerateNeighbors(plan)) {
        ++stats->comparisons;
        auto after = ev.Eval(neighbor);
        if (!after.ok()) {
          out->push_back(MakeDivergence(
              "rules", rule.name, seed, plan, neighbor,
              StrCat("rewritten plan fails to evaluate: ",
                     after.status().ToString())));
          continue;
        }
        ValuePtr lhs = *before;
        ValuePtr rhs = *after;
        if (rule.name == "selection-before-group") {
          lhs = DropEmptyGroupsDeep(lhs);
          rhs = DropEmptyGroupsDeep(rhs);
        } else if (rule.name == "ref-of-deref") {
          lhs = DerefAll(db, lhs);
          rhs = DerefAll(db, rhs);
        }
        if (!lhs->Equals(*rhs)) {
          out->push_back(MakeDivergence(
              "rules", rule.name, seed, plan, neighbor,
              StrCat("before: ", lhs->ToString(), "\nafter:  ",
                     rhs->ToString())));
        }
      }
    }
  }
  return Status::OK();
}

Status CheckLoweringSeed(uint64_t seed, const GenOptions& opts,
                         OracleStats* stats, std::vector<Divergence>* out) {
  Rng rng(seed ^ kLoweringSalt);
  Database db;
  GenDb gen;
  EXA_RETURN_NOT_OK(BuildRandomDatabase(&rng, opts, &db, &gen));
  for (int p = 0; p <= kPlansPerSeed + 1; ++p) {
    // Every third plan has the guaranteed equi-join shape the hash-join
    // lowering targets; the rest exercise the planner on arbitrary shapes.
    // Two extra plans come last: a join as the EXCESS translator emits it,
    // which leg (a') decorrelates before lowering, and a two-bound range
    // over an ordered index the generator creates.
    ExprPtr plan;
    if (p == kPlansPerSeed + 1) {
      Rng range_rng = IndependentRng(seed ^ kLoweringSalt);
      EXA_ASSIGN_OR_RETURN(plan, RandomRangeProbePlan(&range_rng, opts, &db));
    } else {
      plan = p == kPlansPerSeed ? RandomTranslatedJoinPlan(&rng, opts, gen)
             : (p % 3 == 0)     ? RandomJoinPlan(&rng, opts, gen)
                                : RandomPlan(&rng, opts, gen);
    }
    ++stats->plans;
    Evaluator serial(&db);
    serial.set_parallel_enabled(false);
    auto before = serial.Eval(plan);
    if (!before.ok()) {
      ++stats->skipped;
      continue;
    }

    // (a) Direct physical lowering: 3VL-exact. The evaluation runs under a
    // PlanProfile so the EXPLAIN ANALYZE invariant is fuzzed alongside: the
    // profile's root actuals must agree with the evaluated answer, and a
    // two-bound probe's in= must be its interval. The database holds no
    // index before the range plan, so the lowering is index-blind until
    // then.
    ExprPtr lowered = LowerPhysical(plan, &db, CostParams());
    {
      ++stats->comparisons;
      Evaluator ev(&db);
      PlanProfile profile;
      ev.set_profile(&profile);
      auto after = ev.Eval(lowered);
      if (!after.ok()) {
        out->push_back(MakeDivergence(
            "lowering", "LowerPhysical", seed, plan, lowered,
            StrCat("lowered plan fails: ", after.status().ToString())));
      } else if (!(*before)->Equals(**after)) {
        out->push_back(MakeDivergence(
            "lowering", "LowerPhysical", seed, plan, lowered,
            StrCat("logical: ", (*before)->ToString(), "\nphysical: ",
                   (*after)->ToString())));
      } else {
        const ValuePtr& v = *after;
        int64_t expect = v->is_set()     ? v->TotalCount()
                         : v->is_array() ? v->ArrayLength()
                                         : 1;
        const NodeProfile* root = profile.Find(lowered.get());
        if (root == nullptr || root->out_occurrences != expect ||
            root->invocations != 1) {
          out->push_back(MakeDivergence(
              "lowering", "explain-profile", seed, plan, lowered,
              StrCat("profile root out=",
                     std::to_string(root ? root->out_occurrences : -1),
                     " calls=", std::to_string(root ? root->invocations : -1),
                     ", result occurrences=", std::to_string(expect))));
        }
        std::string loose = LooseIntervalProbe(db, *lowered, profile);
        if (!loose.empty()) {
          out->push_back(MakeDivergence("lowering", "explain-profile", seed,
                                        plan, lowered, std::move(loose)));
        }
      }
    }

    // (a') Translated joins: decorrelated and fused, then lowered (the
    // join reads θ through the environment extension). 3VL-exact like (a).
    if (ExprPtr decorrelated = Decorrelated(db, plan)) {
      ++stats->comparisons;
      ExprPtr lowered_join = LowerPhysical(decorrelated);
      Evaluator ev(&db);
      auto after = ev.Eval(lowered_join);
      if (!after.ok()) {
        out->push_back(MakeDivergence(
            "lowering", "decorrelated", seed, plan, lowered_join,
            StrCat("lowered plan fails: ", after.status().ToString())));
      } else if (!(*before)->Equals(**after)) {
        out->push_back(MakeDivergence(
            "lowering", "decorrelated", seed, plan, lowered_join,
            StrCat("logical: ", (*before)->ToString(), "\nphysical: ",
                   (*after)->ToString())));
      }
    }

    // (b) Serial vs parallel APPLY: exact. Threshold 1 forces the parallel
    // path through the worker pool whenever it is >1 (EXCESS_THREADS).
    {
      ++stats->comparisons;
      Evaluator parallel(&db);
      parallel.set_parallel_threshold(1);
      auto after = parallel.Eval(plan);
      if (!after.ok()) {
        out->push_back(MakeDivergence(
            "lowering", "parallel-apply", seed, plan, plan,
            StrCat("parallel eval fails: ", after.status().ToString())));
      } else if (!(*before)->Equals(**after)) {
        out->push_back(MakeDivergence(
            "lowering", "parallel-apply", seed, plan, plan,
            StrCat("serial:   ", (*before)->ToString(), "\nparallel: ",
                   (*after)->ToString())));
      }
    }

    // (c) Full planner (heuristic rules + cost search + lowering). The
    // heuristic/search phases may fire rules with documented deviations, so
    // this comparison gates on unk answers (rule 27), skips plans with
    // possibly-empty cross inputs (rules 5/9), normalizes empty groups
    // (rule 10) and erases ref identity (rule 28).
    if (ContainsUnk(*before) || MightHaveEmptyCrossInput(&serial, plan)) {
      ++stats->skipped;
      continue;
    }
    Planner planner(&db);
    auto optimized = planner.Optimize(plan);
    if (!optimized.ok()) {
      out->push_back(MakeDivergence(
          "lowering", "planner", seed, plan, nullptr,
          StrCat("Optimize fails: ", optimized.status().ToString())));
      continue;
    }
    ++stats->comparisons;
    Evaluator ev(&db);
    auto after = ev.Eval(*optimized);
    if (!after.ok()) {
      out->push_back(MakeDivergence(
          "lowering", "planner", seed, plan, *optimized,
          StrCat("optimized plan fails: ", after.status().ToString())));
      continue;
    }
    ValuePtr lhs = DerefAll(db, DropEmptyGroupsDeep(*before));
    ValuePtr rhs = DerefAll(db, DropEmptyGroupsDeep(*after));
    if (!lhs->Equals(*rhs)) {
      out->push_back(MakeDivergence(
          "lowering", "planner", seed, plan, *optimized,
          StrCat("logical:   ", lhs->ToString(), "\noptimized: ",
                 rhs->ToString())));
    }
  }
  return Status::OK();
}

Status CheckIndexSeed(uint64_t seed, const GenOptions& opts,
                      OracleStats* stats, std::vector<Divergence>* out) {
  Rng rng(seed ^ kIndexSalt);
  Database db;
  GenDb gen;
  EXA_RETURN_NOT_OK(BuildRandomDatabase(&rng, opts, &db, &gen));

  // Candidate definitions over the generated leaves: identity over the int
  // sets, field paths over the pair sets, raw-OID identity and a
  // deref-traversing path over the ref sets. Kinds drawn per run so both
  // hash and ordered indexes appear across a sweep.
  std::vector<IndexDef> candidates;
  auto add = [&](const std::string& set, std::vector<std::string> path) {
    IndexDef d;
    d.name = StrCat("idx", candidates.size());
    d.set_name = set;
    d.path = std::move(path);
    d.kind = rng.Chance(1, 2) ? IndexKind::kOrdered : IndexKind::kHash;
    candidates.push_back(std::move(d));
  };
  for (const auto& s : gen.int_sets) add(s, {});
  for (const auto& s : gen.pair_sets) {
    add(s, {"k"});
    add(s, {"v"});
  }
  for (const auto& s : gen.ref_sets) {
    add(s, {});
    add(s, {"k"});
  }

  std::vector<size_t> live;
  auto create_one = [&]() {
    size_t i = static_cast<size_t>(
        rng.Int(0, static_cast<int64_t>(candidates.size()) - 1));
    if (db.FindIndex(candidates[i].name) != nullptr) return;
    if (db.CreateIndex(candidates[i]).ok()) live.push_back(i);
  };
  // Start with a couple created so the very first plans can lower to probes;
  // churn from there.
  create_one();
  create_one();

  CostParams params;
  for (int p = 0; p <= kPlansPerSeed * 2 + 1; ++p) {
    // Mid-trace churn: index DDL plus base-set mutations, so probes run
    // against incrementally maintained and freshly rebuilt indexes alike.
    switch (rng.Int(0, 4)) {
      case 0:
        create_one();
        break;
      case 1:
        if (!live.empty()) {
          size_t k = static_cast<size_t>(
              rng.Int(0, static_cast<int64_t>(live.size()) - 1));
          (void)db.DropIndex(candidates[live[k]].name);
          live.erase(live.begin() + static_cast<ptrdiff_t>(k));
        }
        break;
      case 2:  // incremental maintenance through AppendNamed
        (void)db.AppendNamed(rng.Pick(gen.int_sets), RandomIntSet(&rng, opts));
        break;
      case 3:  // full rebuild through SetNamed
        (void)db.SetNamed(rng.Pick(gen.pair_sets), RandomPairSet(&rng, opts));
        break;
      default:
        break;  // no churn this round
    }

    // The last two plans are a join as the EXCESS translator emits it and
    // a two-bound range over a fresh ordered index.
    ExprPtr plan;
    if (p == kPlansPerSeed * 2 + 1) {
      Rng range_rng = IndependentRng(seed ^ kIndexSalt);
      EXA_ASSIGN_OR_RETURN(plan, RandomRangeProbePlan(&range_rng, opts, &db));
    } else {
      plan = p == kPlansPerSeed * 2 ? RandomTranslatedJoinPlan(&rng, opts, gen)
             : (p % 2 == 0)         ? RandomJoinPlan(&rng, opts, gen)
                                    : RandomPlan(&rng, opts, gen);
    }
    ++stats->plans;
    Evaluator serial(&db);
    serial.set_parallel_enabled(false);
    auto before = serial.Eval(plan);
    if (!before.ok()) {
      ++stats->skipped;
      continue;
    }

    // Indexed vs unindexed agreement: both lowerings must reproduce the
    // logical answer 3VL-exactly, whatever indexes currently exist.
    struct Leg {
      const char* name;
      ExprPtr tree;
    };
    std::vector<Leg> legs = {{"index-blind", LowerPhysical(plan)},
                             {"index-aware", LowerPhysical(plan, &db, params)}};
    // Translated joins reach HASH_JOIN / IDX_JOIN only once decorrelated.
    if (ExprPtr decorrelated = Decorrelated(db, plan)) {
      legs.push_back({"decorrelated-blind", LowerPhysical(decorrelated)});
      legs.push_back(
          {"decorrelated-aware", LowerPhysical(decorrelated, &db, params)});
    }
    for (const Leg& leg : legs) {
      ++stats->comparisons;
      Evaluator ev(&db);
      PlanProfile profile;
      ev.set_profile(&profile);
      auto after = ev.Eval(leg.tree);
      if (!after.ok()) {
        out->push_back(MakeDivergence(
            "index", leg.name, seed, plan, leg.tree,
            StrCat("lowered plan fails: ", after.status().ToString())));
      } else if (!(*before)->Equals(**after)) {
        out->push_back(MakeDivergence(
            "index", leg.name, seed, plan, leg.tree,
            StrCat("logical: ", (*before)->ToString(),
                   "\nlowered: ", (*after)->ToString())));
      } else {
        std::string loose = LooseIntervalProbe(db, *leg.tree, profile);
        if (!loose.empty()) {
          out->push_back(MakeDivergence("index", leg.name, seed, plan,
                                        leg.tree, std::move(loose)));
        }
      }
    }
  }
  return Status::OK();
}

Status CheckRoundTripSeed(uint64_t seed, const GenOptions& opts,
                          OracleStats* stats, std::vector<Divergence>* out) {
  Rng rng(seed ^ kRoundTripSalt);
  GenOptions denotable = opts;
  denotable.with_nulls = false;
  Database db;
  GenDb gen;
  EXA_RETURN_NOT_OK(BuildRandomDatabase(&rng, denotable, &db, &gen));
  MethodRegistry methods(&db.catalog());
  for (int p = 0; p < kPlansPerSeed; ++p) {
    ExprPtr plan = RandomPlan(&rng, denotable, gen);
    ++stats->plans;
    Evaluator ev(&db);
    auto before = ev.Eval(plan);
    if (!before.ok()) {
      ++stats->skipped;
      continue;
    }
    Emitter emitter(&db, &methods);
    auto program = emitter.Emit(plan);
    if (!program.ok()) {
      if (program.status().code() == StatusCode::kUnsupported) {
        ++stats->skipped;  // the emitter is documented-partial
        continue;
      }
      out->push_back(MakeDivergence(
          "roundtrip", "emit", seed, plan, nullptr,
          StrCat("Emit fails (not Unsupported): ",
                 program.status().ToString())));
      continue;
    }
    if (program->source().empty()) {
      // Var-only plans emit no statements; the result name is the Var.
      ++stats->skipped;
      continue;
    }
    ++stats->comparisons;
    Session::Options sopts;
    sopts.optimize = false;  // test translation, not the planner
    Session session(&db, &methods, sopts);
    auto run = session.Execute(program->source());
    if (!run.ok()) {
      out->push_back(MakeDivergence(
          "roundtrip", program->source(), seed, plan, nullptr,
          StrCat("emitted program fails to execute: ",
                 run.status().ToString())));
      continue;
    }
    auto stored = db.NamedValue(program->result_name());
    if (!stored.ok()) {
      out->push_back(MakeDivergence(
          "roundtrip", program->source(), seed, plan, nullptr,
          StrCat("result object missing: ", stored.status().ToString())));
      continue;
    }
    if (!(*before)->Equals(**stored)) {
      out->push_back(MakeDivergence(
          "roundtrip", program->source(), seed, plan, nullptr,
          StrCat("direct:    ", (*before)->ToString(), "\nround-trip: ",
                 (*stored)->ToString())));
    }
  }
  return Status::OK();
}

int64_t FuzzParserSeed(uint64_t seed, const GenOptions& opts) {
  Rng rng(seed ^ kFuzzSalt);
  // Well-formed sources covering every statement kind; mutation starts from
  // valid programs because interesting lexer/parser states live near them.
  static const std::vector<std::string>* kCorpus =
      new std::vector<std::string>{
          "define type Person : (name: char[20], age: int4)",
          "create People : { Person }",
          "range of P is People\n"
          "retrieve (P.name) where P.age >= 21 and not P.name = \"x\"",
          "retrieve unique (x: 1 + 2.5 * 3, y: \"a\\\"b\") into Out",
          "append all {1, 2, 3} union {4} to Nums",
          "delete Nums where Nums > 1",
          "retrieve (count(x from x in {1,2,3} where x % 2 = 1))",
          "retrieve ([1,2,3][2..last], [4,5][last])",
          "define Person function adult() returns bool "
          "{ retrieve (this.age >= 18) }",
          "retrieve ((s: {(a: 1), (a: 2)}, t: [[1],[2]]))",
      };
  int64_t parsed = 0;
  // A freshly emitted program joins the corpus so mutations track whatever
  // the emitter currently produces.
  {
    Rng gen_rng(seed ^ kRoundTripSalt);
    GenOptions denotable = opts;
    denotable.with_nulls = false;
    Database db;
    GenDb gen;
    if (BuildRandomDatabase(&gen_rng, denotable, &db, &gen).ok()) {
      ExprPtr plan = RandomPlan(&gen_rng, denotable, gen);
      MethodRegistry methods(&db.catalog());
      Emitter emitter(&db, &methods);
      auto program = emitter.Emit(plan);
      std::string source = program.ok() ? program->source()
                                        : rng.Pick(*kCorpus);
      for (int k = 0; k < 4; ++k) {
        auto r = Parse(MutateSource(&rng, source));
        (void)r;  // ok or error Status both fine; crashes kill the test
        ++parsed;
      }
    }
  }
  for (int k = 0; k < 12; ++k) {
    auto r = Parse(MutateSource(&rng, rng.Pick(*kCorpus)));
    (void)r;
    ++parsed;
  }
  return parsed;
}

}  // namespace check
}  // namespace excess
