package simplify

import (
	"slices"

	"repro/internal/cnf"
)

// Bounded variable elimination (NiVER-style): a variable v with
// positive occurrences P and negative occurrences N can be resolved
// away — P∪N is replaced by the set R of non-tautological resolvents of
// every (p, n) pair — and the result is equisatisfiable. The pass is
// *bounded*: v is eliminated only when |R| ≤ |P| + |N| (the clause
// count never grows) and |P|·|N| stays under a small work cap, the
// regime where elimination is always a win for the NBL engines (n
// shrinks by one, m does not grow, so n·m strictly drops).
//
// Eliminations are recorded on Result.Eliminations so Reconstruct can
// extend a model of the reduced formula back over the eliminated
// variables.

// maxResolvePairs caps |P|·|N| per candidate so a variable occurring in
// half the clauses cannot make the pass quadratic in m.
const maxResolvePairs = 64

// Elimination records one variable eliminated by resolution: the
// variable and the clauses (in parent variable space) that mentioned it
// at the time. Reconstruct replays these in reverse to pick a value for
// V that satisfies all of them.
type Elimination struct {
	V       cnf.Var
	Clauses []cnf.Clause
}

// eliminate runs one sweep of bounded variable elimination. conflict
// reports that an empty resolvent was derived (only possible when both
// sides are unit clauses, i.e. (v)·(¬v) — normally unit propagation has
// removed those first). Eliminated clauses are tombstoned and
// resolvents appended, so the survivors are the untouched clauses in
// order, then the resolvents as made; one compaction ends the sweep.
func eliminate(clauses []cnf.Clause, numVars int, res *Result) (out []cnf.Clause, conflict, changed bool) {
	clauses = clauses[:len(clauses):len(clauses)] // appends never reach the caller's array
	x := newOccIndex(clauses, numVars)
	dead := make([]bool, len(clauses))
	for v := cnf.Var(1); int(v) <= numVars; v++ {
		pos, neg := x.live(cnf.Pos(v), dead), x.live(cnf.Neg(v), dead)
		if len(pos) == 0 || len(neg) == 0 || len(pos)*len(neg) > maxResolvePairs {
			continue // absent, pure (the pure pass handles it) or too costly
		}
		if hasUnit(clauses, pos) && hasUnit(clauses, neg) { // before resolveAll can stop early
			return nil, true, true
		}
		resolvents, ok := x.resolveAll(clauses, pos, neg, v)
		if !ok {
			continue // elimination would grow the formula
		}
		// Commit: record the removed clauses, in formula order, for
		// reconstruction; append the resolvents.
		touched := append(slices.Clone(pos), neg...)
		slices.Sort(touched)
		elim := Elimination{V: v, Clauses: make([]cnf.Clause, len(touched))}
		for k, i := range touched {
			dead[i], elim.Clauses[k] = true, clauses[i]
		}
		for _, r := range resolvents {
			x.add(r)
			clauses, dead = append(clauses, r), append(dead, false)
		}
		res.Eliminations = append(res.Eliminations, elim)
		res.Stats.VarsEliminated++
		changed = true
	}
	if !changed {
		return clauses, false, false
	}
	out = make([]cnf.Clause, 0, len(clauses))
	for i, c := range clauses {
		if !dead[i] {
			out = append(out, c)
		}
	}
	return out, false, true
}

// live drops the dead clauses from occ[l] and returns it.
func (x *occIndex) live(l cnf.Lit, dead []bool) []int {
	x.occ[l] = slices.DeleteFunc(x.occ[l], func(i int) bool { return dead[i] })
	return x.occ[l]
}

func hasUnit(clauses []cnf.Clause, idx []int) bool {
	return slices.ContainsFunc(idx, func(i int) bool { return len(clauses[i]) == 1 })
}

// resolveAll returns the distinct non-tautological resolvents on v of
// every (p, n) pair, in pair order, first occurrence kept, in a slice
// the next call reuses. ok is false as soon as there are more than
// len(pos)+len(neg) of them.
func (x *occIndex) resolveAll(clauses []cnf.Clause, pos, neg []int, v cnf.Var) ([]cnf.Clause, bool) {
	out := x.resolvents[:0]
	for _, pi := range pos {
	pairs:
		for _, ni := range neg {
			var ok bool
			if x.lits, ok = x.resolve(x.lits[:0], clauses[pi], clauses[ni], v); !ok {
				continue // tautological resolvent
			}
			for _, d := range out { // resolve left x.lits marked
				if len(d) == len(x.lits) && x.marked(d) == len(d) {
					continue pairs
				}
			}
			out = append(out, slices.Clone(x.lits))
			if x.resolvents = out; len(out) > len(pos)+len(neg) {
				return nil, false
			}
		}
	}
	return out, true
}

// resolve appends the resolvent of p (containing v) and n (containing
// ¬v) on v to buf, leaving its literals marked. ok is false when the
// resolvent is tautological.
func (x *occIndex) resolve(buf, p, n cnf.Clause, v cnf.Var) (cnf.Clause, bool) {
	x.stamp++
	for _, c := range [2]cnf.Clause{p, n} {
		for _, l := range c {
			switch {
			case l.Var() == v || x.seen[l] == x.stamp:
			case x.seen[l.Negate()] == x.stamp:
				return buf, false
			default:
				x.seen[l] = x.stamp
				buf = append(buf, l)
			}
		}
	}
	return buf, true
}
