#ifndef TTRA_OPTIMIZER_REWRITER_H_
#define TTRA_OPTIMIZER_REWRITER_H_

#include <vector>

#include "lang/absint.h"
#include "lang/analyzer.h"
#include "lang/ast.h"

namespace ttra::optimizer {

/// Rule-based rewriter exploiting exactly the algebraic properties the
/// paper claims are preserved by the transaction-time extension (§2, §5):
/// the classical select/project identities keep holding below and around
/// ρ, so "the full application of previously developed algebraic
/// optimizations" remains available. The property suite (experiment E1)
/// checks every rewrite for semantic equivalence on randomized inputs.
///
/// Rules applied to a fixpoint (bounded):
///  * σ-merge:        σ_F(σ_G(E))         → σ_{F∧G}(E)
///  * σ-over-∪:       σ_F(E1 ∪ E2)        → σ_F(E1) ∪ σ_F(E2)
///  * σ-over-−:       σ_F(E1 − E2)        → σ_F(E1) − σ_F(E2)
///  * σ-over-×:       σ_{F1∧F2∧Fm}(E1×E2) → σ_{Fm}(σ_{F1}(E1) × σ_{F2}(E2))
///                     (conjuncts routed to the side whose scheme covers
///                      their attributes; mixed conjuncts stay on top)
///  * π-absorb:       π_X(π_Y(E))         → π_X(E)
///  * σ/δ identities: σ_true(E) → E, δ_{true, valid}(E) → E
///  * σ_false(E)      → the empty constant of E's scheme (needs catalog)
///  * predicate simplification (¬¬p, p∧true, p∧false, p∨true, ...)
///
/// All rules are kind-agnostic: they fire for snapshot and historical
/// operands alike, which is the paper's orthogonality claim in action.

struct RewriteStats {
  int passes = 0;
  int applications = 0;
};

/// Simplifies a predicate by constant propagation and double-negation
/// elimination. Semantics-preserving for all inputs.
Predicate SimplifyPredicate(const Predicate& predicate);

/// Splits a predicate into its top-level conjuncts.
std::vector<Predicate> SplitConjuncts(const Predicate& predicate);

/// Rebuilds a conjunction (empty input → true).
Predicate AndAll(const std::vector<Predicate>& conjuncts);

/// Rewrites the expression to a cheaper equivalent form. The catalog is
/// used to derive schemas (needed by σ-over-× routing and σ_false
/// folding); unknown relations make those rules no-ops rather than errors.
lang::Expr Optimize(const lang::Expr& expr, const lang::Catalog& catalog,
                    RewriteStats* stats = nullptr);

// --- Facts-driven rewrites (abstract interpretation consumer) ---------------
//
// OptimizeWithFacts layers four rewrite families over Optimize, each
// justified by the interpreter's facts (DESIGN.md §10):
//  * ρ-empty fold:   ρ/ρ̂(I, N) with the relation provably recording no
//                    state at or before N → the empty constant FINDSTATE
//                    would return (only when the observed scheme is
//                    provably the current one).
//  * ρ-∞ normalize:  ρ/ρ̂(I, N) with N provably at/after the relation's
//                    last recorded state → ρ/ρ̂(I, ∞), which names the
//                    current state without a transaction number.
//  * const fold:     a relation-free subexpression whose evaluation
//                    succeeds → its value as a constant (TTRA-W009's
//                    rewrite; evaluation failure keeps the expression so
//                    run-time errors are preserved).
//  * ∅-pruning:      E ∪ ∅ → E, ∅ − E → ∅, E − ∅ → E, ∅ ∩ E → ∅,
//                    ∅ × E → ∅, ∅ ⋈ E → ∅ (and mirrored) — applied only
//                    when run-time schema checks are provably redundant
//                    and the discarded side has no value-dependent
//                    failure source (extend/summarize/delta).
//
// Soundness contract: `facts` must abstract the database state the
// expression evaluates against — AbsStateFromDatabase(db) right before
// execution, or Interpret()'s per-statement pre-state for whole programs
// (the latter is exact for strict execution; see DESIGN.md §10). The
// oracle test replays rewritten vs. original programs to enforce this.
lang::Expr OptimizeWithFacts(const lang::Expr& expr,
                             const lang::Catalog& catalog,
                             const lang::AbsState& facts,
                             RewriteStats* stats = nullptr);

/// Whole-program optimization: runs the abstract interpreter once and
/// rewrites every modify_state/show expression against its per-statement
/// facts, threading catalog effects. Statements the analyzer rejects are
/// left untouched (rewrites must not mask static errors).
lang::Program OptimizeProgram(const lang::Program& program,
                              lang::Catalog catalog, lang::AbsState initial,
                              RewriteStats* stats = nullptr);

}  // namespace ttra::optimizer

#endif  // TTRA_OPTIMIZER_REWRITER_H_
