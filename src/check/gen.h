#ifndef EXCESS_CHECK_GEN_H_
#define EXCESS_CHECK_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/expr.h"
#include "objects/database.h"
#include "util/status.h"

namespace excess {
/// Randomized test-case generation for the differential-testing oracles
/// (check/oracle.h). Everything here is deterministic in the seed: the same
/// seed always produces the same database and the same plans, which is what
/// lets a divergence be replayed from a corpus entry holding only
/// (oracle, seed, iteration).
namespace check {

/// Deterministic splitmix64-based generator. Not std::mt19937 so that the
/// stream is stable across standard-library implementations — corpus seeds
/// must reproduce everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t Int(int64_t lo, int64_t hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  /// True with probability num/den.
  bool Chance(int num, int den) { return Int(1, den) <= num; }
  /// Uniform pick from a non-empty vector.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[static_cast<size_t>(Int(0, static_cast<int64_t>(v.size()) - 1))];
  }

 private:
  uint64_t state_;
};

/// A generator for `seed` whose stream shares no stretch with the streams
/// of nearby seeds. Rng(s) after k draws is Rng(s + k), so the streams of
/// consecutive seeds are shifts of one another, and a plan drawn after a
/// varying number of draws repeats across seeds.
inline Rng IndependentRng(uint64_t seed) { return Rng(Rng(seed).Next()); }

/// Knobs for database/plan generation. The defaults keep everything tiny —
/// the oracles trade instance size for iteration count, following the
/// small-scope hypothesis (divergences that exist at all exist on small
/// inputs, and the shrinker relies on that too).
struct GenOptions {
  int max_set_size = 6;     // occurrences per generated multiset
  int max_array_len = 6;    // elements per generated array
  int max_plan_depth = 3;   // combinator nesting above the leaf collections
  /// Sprinkle unk scalars / unk tuple fields. The round-trip oracle turns
  /// this off so Const leaves stay EXCESS-denotable (unk has no literal
  /// form and would make the emitter skip most plans).
  bool with_nulls = true;
  bool with_refs = true;  // create interned objects and ref-typed sets
};

/// The named objects BuildRandomDatabase creates, grouped by shape so the
/// plan generator can pick a leaf of the shape it needs. Names are stable
/// per group ("IntsN", "PairsN", ...).
struct GenDb {
  std::vector<std::string> int_sets;     // {int}           (may contain unk)
  std::vector<std::string> pair_sets;    // {(k:int, v:int)}
  std::vector<std::string> nested_sets;  // {{int}}
  std::vector<std::string> int_arrays;   // [int]
  std::vector<std::string> ref_sets;     // {ref Item}  (shared OIDs)
};

/// Random scalar int value; may be unk when opts.with_nulls.
ValuePtr RandomIntScalar(Rng* rng, const GenOptions& opts);
/// Random small multiset of ints (entries with cardinalities 1..3).
ValuePtr RandomIntSet(Rng* rng, const GenOptions& opts);
/// Random multiset of (k:int, v:int) tuples.
ValuePtr RandomPairSet(Rng* rng, const GenOptions& opts);
/// Random multiset of int multisets.
ValuePtr RandomNestedSet(Rng* rng, const GenOptions& opts);
/// Random int array.
ValuePtr RandomIntArray(Rng* rng, const GenOptions& opts);

/// Populates `db` with 1-2 named objects per GenDb group (ref_sets only
/// when opts.with_refs: an Item type plus interned objects, with some OIDs
/// deliberately shared between occurrences and across sets).
Status BuildRandomDatabase(Rng* rng, const GenOptions& opts, Database* db,
                           GenDb* out);

/// A random closed, well-typed, set-valued algebra plan over `gen`'s named
/// objects and fresh Const leaves. Generation is shape-directed, biased
/// toward forms the rewrite rules and the physical lowering fire on
/// (selections over crosses, nested applies, DE/GRP stacks, equi-joins).
ExprPtr RandomPlan(Rng* rng, const GenOptions& opts, const GenDb& gen);

/// A random plan of the equi-join shape the physical lowering targets:
/// SET_APPLY[COMP_θ(INPUT)](CROSS(A, B)) with at least one cross-side
/// equality atom in θ (plus optional residual atoms and projections).
ExprPtr RandomJoinPlan(Rng* rng, const GenOptions& opts, const GenDb& gen);

/// A two-variable join in the shape the EXCESS translator emits: the
/// second range variable bound through the dependent product
/// SET_COLLAPSE(SET_APPLY[SET_APPLY[TUP_CAT(_1, TUP<y>(_2))](CROSS(SET(g),
/// B))](A)), a COMP over the environment tuples with an equality between
/// the variables, and an optional target list. Sides mix int sets (unk
/// elements) and pair sets (unk fields), with duplicate occurrences; g may
/// drop environments (dne) through a selection.
ExprPtr RandomTranslatedJoinPlan(Rng* rng, const GenOptions& opts,
                                 const GenDb& gen);

/// A selection bounding an ordered index's key from both sides. Creates
/// in `db` the named set "Ranged" of (k, v) tuples — int and float keys
/// (some equal across kinds), NaN, unk and dne keys, duplicate
/// occurrences, now and then a string key that mixes the key families —
/// and the ordered index "ranged_k" on k. The plan selects with θ = a lower
/// (> or >=) and an upper (< or <=) bound on k, each in either operand
/// order, in either conjunct order, now and then with a third conjunct on
/// v, and now and then a target v composed over the COMP. Bounds draw from
/// ints, floats, NaN, unk, dne and a string (cross-family); lo may exceed
/// hi, and lo == hi comes with strict and non-strict ops.
/// Draw it from IndependentRng: the sweeps add it after their other plans.
Result<ExprPtr> RandomRangeProbePlan(Rng* rng, const GenOptions& opts,
                                     Database* db);

/// Mutates EXCESS source text for the parser fuzz oracle: 1-3 random edits
/// (truncate, delete, insert, duplicate a span, swap a char) drawn from a
/// printable alphabet plus the language's punctuation.
std::string MutateSource(Rng* rng, const std::string& source);

}  // namespace check
}  // namespace excess

#endif  // EXCESS_CHECK_GEN_H_
