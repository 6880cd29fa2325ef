#include "obs/explain.h"

#include <cstdio>

namespace excess {
namespace obs {

namespace {

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatNanos(int64_t ns) {
  char buf[40];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          *out += esc;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Operator parameters, matching the subscripts of the paper's notation
/// (the tree structure itself carries children/sub/pred).
std::string Detail(const Expr& e) {
  switch (e.kind()) {
    case OpKind::kConst:
      return e.literal() != nullptr ? e.literal()->ToString() : "";
    case OpKind::kVar:
      return e.name();
    case OpKind::kParam:
      return "$" + std::to_string(e.index());
    case OpKind::kSetApply:
      return e.type_filter().empty() ? "" : "<" + e.type_filter() + ">";
    case OpKind::kProject: {
      std::string out;
      for (const auto& n : e.names()) {
        if (!out.empty()) out += ",";
        out += n;
      }
      return out;
    }
    case OpKind::kTupExtract:
    case OpKind::kTupMake:
    case OpKind::kRef:
    case OpKind::kAgg:
    case OpKind::kMethodCall:
    case OpKind::kArith:
      return e.name();
    case OpKind::kArrExtract:
      return e.index_is_last() ? "last" : std::to_string(e.index());
    case OpKind::kSubArr: {
      std::string lo = e.lo_is_last() ? "last" : std::to_string(e.lo());
      std::string hi = e.hi_is_last() ? "last" : std::to_string(e.hi());
      return lo + ".." + hi;
    }
    case OpKind::kComp:
    case OpKind::kHashJoin:
      return e.pred() != nullptr ? e.pred()->ToString() : "";
    case OpKind::kIndexProbe:
    case OpKind::kIndexJoin: {
      std::string out = "idx=" + e.name();
      if (e.pred() != nullptr) out += " " + e.pred()->ToString();
      return out;
    }
    default:
      return "";
  }
}

/// Operand expressions of every atom of `p`, in DFS order — the same nodes
/// the evaluator visits (and Counts) when testing the predicate.
void CollectPredOperands(const Predicate& p, std::vector<ExprPtr>* out) {
  switch (p.kind) {
    case Predicate::Kind::kAtom:
      out->push_back(p.lhs);
      out->push_back(p.rhs);
      return;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      CollectPredOperands(*p.a, out);
      CollectPredOperands(*p.b, out);
      return;
    case Predicate::Kind::kNot:
      CollectPredOperands(*p.a, out);
      return;
    case Predicate::Kind::kTrue:
      return;
  }
}

ExplainNode Annotate(const CostModel& cost, const ExprPtr& e,
                     const PlanProfile* profile, std::string role) {
  ExplainNode n;
  n.op = OpKindToString(e->kind());
  n.detail = Detail(*e);
  n.role = std::move(role);
  if (auto est = cost.Estimate(e); est.ok()) {
    n.est_cardinality = est->cardinality;
    n.est_cost = est->total;
  }
  if (profile != nullptr) {
    if (const NodeProfile* np = profile->Find(e.get())) {
      n.act_invocations = np->invocations;
      n.act_occurrences_in = np->occurrences_in;
      n.act_out_occurrences = np->out_occurrences;
      n.act_self_nanos = np->self_nanos;
    }
  }
  const bool join = e->kind() == OpKind::kHashJoin ||
                    e->kind() == OpKind::kIndexJoin;
  const bool probe = e->kind() == OpKind::kIndexProbe;
  for (size_t i = 0; i < e->num_children(); ++i) {
    // HASH_JOIN / IDX_JOIN children 2/3 are per-element key binders, not
    // data inputs; IDX_PROBE's children are closed probe expressions (the
    // interval's two ends for a two-bound probe).
    std::string child_role;
    if (join && i >= 2) child_role = "key";
    if (probe) child_role = "probe";
    n.children.push_back(Annotate(cost, e->child(i), profile, child_role));
  }
  if (e->sub() != nullptr) {
    n.children.push_back(Annotate(cost, e->sub(), profile, "sub"));
  }
  if (e->pred() != nullptr) {
    std::vector<ExprPtr> operands;
    CollectPredOperands(*e->pred(), &operands);
    for (const auto& op : operands) {
      n.children.push_back(Annotate(cost, op, profile, "pred"));
    }
  }
  return n;
}

void PrettyNode(const ExplainNode& n, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  if (!n.role.empty()) {
    *out += n.role;
    *out += ": ";
  }
  *out += n.op;
  if (!n.detail.empty()) {
    *out += " ";
    *out += n.detail;
  }
  if (n.est_cost >= 0) {
    *out += "  (est rows=" + Num(n.est_cardinality) +
            " cost=" + Num(n.est_cost) + ")";
  }
  if (n.act_invocations >= 0) {
    *out += "  [act calls=" + std::to_string(n.act_invocations) +
            " in=" + std::to_string(n.act_occurrences_in) +
            " out=" + std::to_string(n.act_out_occurrences);
    if (n.act_self_nanos > 0) *out += " self=" + FormatNanos(n.act_self_nanos);
    *out += "]";
  }
  *out += "\n";
  for (const auto& c : n.children) PrettyNode(c, indent + 1, out);
}

void JsonNode(const ExplainNode& n, std::string* out) {
  *out += "{\"op\": ";
  AppendJsonString(out, n.op);
  *out += ", \"detail\": ";
  AppendJsonString(out, n.detail);
  *out += ", \"role\": ";
  AppendJsonString(out, n.role);
  if (n.est_cost >= 0) {
    *out += ", \"est\": {\"cardinality\": " + Num(n.est_cardinality) +
            ", \"cost\": " + Num(n.est_cost) + "}";
  }
  if (n.act_invocations >= 0) {
    *out += ", \"act\": {\"invocations\": " + std::to_string(n.act_invocations) +
            ", \"occurrences_in\": " + std::to_string(n.act_occurrences_in) +
            ", \"out_occurrences\": " +
            std::to_string(n.act_out_occurrences) +
            ", \"self_nanos\": " + std::to_string(n.act_self_nanos) + "}";
  }
  *out += ", \"children\": [";
  for (size_t i = 0; i < n.children.size(); ++i) {
    if (i > 0) *out += ", ";
    JsonNode(n.children[i], out);
  }
  *out += "]}";
}

}  // namespace

ExplainNode AnnotatePlan(const Database* db, const ExprPtr& plan,
                         const CostParams& params,
                         const PlanProfile* profile) {
  CostModel cost(db, params);
  return Annotate(cost, plan, profile, "");
}

ExplainReport ExplainPlan(const Database* db, const ExprPtr& plan,
                          const CostParams& params,
                          const std::string& statement) {
  ExplainReport report;
  report.statement = statement;
  report.logical = AnnotatePlan(db, plan, params);
  report.physical = report.logical;
  CostModel cost(db, params);
  if (auto est = cost.Estimate(plan); est.ok()) report.est_total = est->total;
  return report;
}

std::string ExplainReport::Pretty(bool with_trace) const {
  std::string out = "EXPLAIN";
  if (analyzed) out += " ANALYZE";
  out += optimized ? " (optimized)" : " (optimizer off)";
  out += "\n";
  if (!statement.empty()) out += statement + "\n";
  out += "logical plan:\n";
  PrettyNode(logical, 1, &out);
  out += analyzed ? "executed plan:\n" : "physical plan:\n";
  PrettyNode(physical, 1, &out);
  if (est_total >= 0) out += "estimated total cost: " + Num(est_total) + "\n";
  if (analyzed) {
    out += "actual: wall=" + FormatNanos(wall_nanos);
    if (peak_bytes >= 0) out += " peak_bytes=" + std::to_string(peak_bytes);
    if (result_occurrences >= 0) {
      out += " result_occurrences=" + std::to_string(result_occurrences);
    }
    out += "\n";
  }
  if (with_trace) {
    out += "rewrite trace (" + std::to_string(trace.size()) + " steps):\n";
    int i = 0;
    for (const auto& step : trace) {
      out += "  " + std::to_string(++i) + ". [" + step.phase + "] " +
             step.rule;
      if (step.paper_id > 0) {
        out += " (paper rule " + std::to_string(step.paper_id) + ")";
      }
      if (step.cost_before >= 0 && step.cost_after >= 0) {
        out += ": cost " + Num(step.cost_before) + " -> " +
               Num(step.cost_after);
      }
      out += "\n";
      out += "     before: " + step.before + "\n";
      out += "     after:  " + step.after + "\n";
    }
  }
  return out;
}

std::string ExplainReport::ToJson() const {
  std::string out = "{\"version\": 1, \"statement\": ";
  AppendJsonString(&out, statement);
  out += ", \"optimized\": ";
  out += optimized ? "true" : "false";
  out += ", \"analyzed\": ";
  out += analyzed ? "true" : "false";
  out += ", \"estimated_total_cost\": ";
  out += est_total >= 0 ? Num(est_total) : "null";
  out += ", \"wall_nanos\": ";
  out += wall_nanos >= 0 ? std::to_string(wall_nanos) : "null";
  out += ", \"peak_bytes\": ";
  out += peak_bytes >= 0 ? std::to_string(peak_bytes) : "null";
  out += ", \"result_occurrences\": ";
  out += result_occurrences >= 0 ? std::to_string(result_occurrences) : "null";
  out += ", \"logical\": ";
  JsonNode(logical, &out);
  out += ", \"physical\": ";
  JsonNode(physical, &out);
  out += ", \"trace\": [";
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) out += ", ";
    const TraceStep& s = trace[i];
    out += "{\"phase\": ";
    AppendJsonString(&out, s.phase);
    out += ", \"paper_id\": " + std::to_string(s.paper_id) + ", \"rule\": ";
    AppendJsonString(&out, s.rule);
    out += ", \"before\": ";
    AppendJsonString(&out, s.before);
    out += ", \"after\": ";
    AppendJsonString(&out, s.after);
    out += ", \"cost_before\": ";
    out += s.cost_before >= 0 ? Num(s.cost_before) : "null";
    out += ", \"cost_after\": ";
    out += s.cost_after >= 0 ? Num(s.cost_after) : "null";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace excess
