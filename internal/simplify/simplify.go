// Package simplify implements CNF preprocessing: unit propagation, pure
// literal elimination, tautology and duplicate removal, clause
// subsumption, self-subsuming resolution (clause strengthening) and
// bounded variable elimination.
//
// The clause passes follow SatELite (Eén & Biere, SAT 2005): each
// builds per-literal occurrence lists, 64-bit clause signatures and a
// stamp-array literal marker, so no pass compares every clause pair.
// BVE stops resolving a variable as soon as its distinct resolvents
// outnumber the clauses they would replace. The output is the same,
// byte for byte, as the plain quadratic passes kept in oracle_test.go,
// because pre(mc) noise streams, cache keys and stored verdicts all
// hang on it. That is why subsumption keeps its exact sort.Slice call,
// strengthening its sequential order and BVE its clause order.
//
// Preprocessing matters more for NBL-SAT than for classical solvers:
// the Monte-Carlo engine's sample budget grows as 4^(n·m)
// (Section III-F), so removing a single clause or variable before the
// noise encoding cuts the observation time by an exponential factor.
// The nblsat CLI exposes this via -preprocess.
package simplify

import (
	"fmt"
	"sort"

	"repro/internal/cnf"
)

// Options selects which passes run. The zero value enables everything.
type Options struct {
	// DisableUnits skips unit propagation.
	DisableUnits bool
	// DisablePure skips pure-literal elimination.
	DisablePure bool
	// DisableSubsumption skips clause subsumption.
	DisableSubsumption bool
	// DisableStrengthen skips self-subsuming resolution.
	DisableStrengthen bool
	// DisableBVE skips bounded variable elimination.
	DisableBVE bool
	// MaxRounds bounds the fixpoint iteration (default 20).
	MaxRounds int
}

// Result is the outcome of preprocessing.
type Result struct {
	// F is the simplified formula over compacted variables 1..F.NumVars.
	F *cnf.Formula
	// ProvedUnsat reports that preprocessing derived the empty clause;
	// F is meaningless in that case.
	ProvedUnsat bool
	// Forced holds values of original variables fixed by unit
	// propagation or pure literals.
	Forced cnf.Assignment
	// VarMap maps compacted variable v (1-based index into VarMap-1) to
	// the original variable it renames.
	VarMap []cnf.Var
	// Eliminations lists the variables removed by bounded variable
	// elimination, in the order they were eliminated. Reconstruct
	// replays them in reverse to extend a model over them.
	Eliminations []Elimination
	// Stats summarizes the reduction.
	Stats Stats
}

// Stats quantifies the reduction.
type Stats struct {
	UnitsPropagated             int
	PureLiterals                int
	ClausesSubsumed             int
	LiteralsStrength            int
	VarsEliminated              int
	VarsBefore, VarsAfter       int
	ClausesBefore, ClausesAfter int
}

// NMBefore returns the n·m product before preprocessing, the quantity
// that drives the NBL sample budget.
func (s Stats) NMBefore() int { return s.VarsBefore * s.ClausesBefore }

// NMAfter returns the n·m product after preprocessing.
func (s Stats) NMAfter() int { return s.VarsAfter * s.ClausesAfter }

func (s Stats) String() string {
	return fmt.Sprintf("units=%d pure=%d subsumed=%d strengthened=%d eliminated=%d  n·m %d -> %d",
		s.UnitsPropagated, s.PureLiterals, s.ClausesSubsumed, s.LiteralsStrength,
		s.VarsEliminated, s.NMBefore(), s.NMAfter())
}

// Simplify preprocesses f.
func Simplify(f *cnf.Formula, opts Options) *Result {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 20
	}
	res := &Result{
		Forced: cnf.NewAssignment(f.NumVars),
	}
	res.Stats.VarsBefore = f.NumVars
	res.Stats.ClausesBefore = f.NumClauses()

	work, hasEmpty := f.Simplify() // drop tautologies, dedup literals
	if hasEmpty {
		res.ProvedUnsat = true
		return res
	}
	clauses := work.Clauses

	for round := 0; round < opts.MaxRounds; round++ {
		changed := false

		if !opts.DisableUnits {
			var conflict bool
			clauses, conflict, changed = propagateUnits(clauses, res)
			if conflict {
				res.ProvedUnsat = true
				return res
			}
		}
		if !opts.DisablePure {
			if c, ch := eliminatePure(clauses, f.NumVars, res); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableSubsumption {
			if c, ch := subsume(clauses, res); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableStrengthen {
			if c, ch := strengthen(clauses, res); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableBVE {
			c, conflict, ch := eliminate(clauses, f.NumVars, res)
			if conflict {
				res.ProvedUnsat = true
				return res
			}
			if ch {
				clauses, changed = c, true
			}
		}
		if !changed {
			break
		}
	}

	// Strengthening can shrink a clause to empty (e.g. resolving the
	// last literal away): that is a derived contradiction.
	for _, c := range clauses {
		if len(c) == 0 {
			res.ProvedUnsat = true
			return res
		}
	}

	res.F, res.VarMap = compact(clauses)
	res.Stats.VarsAfter = res.F.NumVars
	res.Stats.ClausesAfter = res.F.NumClauses()
	return res
}

// compact renumbers the variables occurring in clauses to 1..n in
// ascending order of their original identity, returning the compacted
// formula and the map from compacted variable v to the original
// variable varMap[v-1]. Shared by Simplify and Decompose.
func compact(clauses []cnf.Clause) (*cnf.Formula, []cnf.Var) {
	used := map[cnf.Var]bool{}
	for _, c := range clauses {
		for _, l := range c {
			used[l.Var()] = true
		}
	}
	vars := make([]cnf.Var, 0, len(used))
	for v := range used {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	remap := make(map[cnf.Var]cnf.Var, len(vars))
	for i, v := range vars {
		remap[v] = cnf.Var(i + 1)
	}
	out := cnf.New(len(vars))
	for _, c := range clauses {
		d := make(cnf.Clause, len(c))
		for i, l := range c {
			d[i] = cnf.NewLit(remap[l.Var()], l.IsNeg())
		}
		out.Clauses = append(out.Clauses, d)
	}
	return out, vars
}

// Reconstruct lifts a model of the simplified formula to a total
// assignment of the original formula: forced values first, then the
// model through VarMap, then false for anything left free, then the
// variables removed by bounded variable elimination, replayed in
// reverse elimination order so each one's removed clauses come out
// satisfied.
func (r *Result) Reconstruct(model cnf.Assignment) cnf.Assignment {
	out := r.Forced.Clone()
	for i, orig := range r.VarMap {
		out.Set(orig, model.Get(cnf.Var(i+1)))
	}
	for v := 1; v < len(out); v++ {
		if out[v] == cnf.Unassigned {
			out[v] = cnf.False
		}
	}
	for i := len(r.Eliminations) - 1; i >= 0; i-- {
		e := r.Eliminations[i]
		// v must be true iff some clause containing the positive
		// literal is not already satisfied by another literal. (The
		// model satisfies every resolvent, so the other side's clauses
		// are then satisfied by ¬v's side being covered.)
		needTrue := false
		pos := cnf.Pos(e.V)
		for _, c := range e.Clauses {
			if !c.Contains(pos) {
				continue
			}
			satisfied := false
			for _, l := range c {
				if l == pos {
					continue
				}
				if out.LitValue(l) == cnf.True {
					satisfied = true
					break
				}
			}
			if !satisfied {
				needTrue = true
				break
			}
		}
		if needTrue {
			out.Set(e.V, cnf.True)
		} else {
			out.Set(e.V, cnf.False)
		}
	}
	return out
}

// propagateUnits applies all unit clauses, returning the reduced clause
// set. conflict reports a derived contradiction.
func propagateUnits(clauses []cnf.Clause, res *Result) (out []cnf.Clause, conflict, changed bool) {
	for {
		var unit cnf.Lit
		found := false
		for _, c := range clauses {
			if len(c) == 1 {
				unit = c[0]
				found = true
				break
			}
		}
		if !found {
			return clauses, false, changed
		}
		changed = true
		res.Stats.UnitsPropagated++
		val := cnf.True
		if unit.IsNeg() {
			val = cnf.False
		}
		if prev := res.Forced.Get(unit.Var()); prev != cnf.Unassigned && prev != val {
			return nil, true, true
		}
		res.Forced.Set(unit.Var(), val)

		next := clauses[:0:0]
		for _, c := range clauses {
			if c.Contains(unit) {
				continue // satisfied
			}
			if c.Contains(unit.Negate()) {
				d := make(cnf.Clause, 0, len(c)-1)
				for _, l := range c {
					if l != unit.Negate() {
						d = append(d, l)
					}
				}
				if len(d) == 0 {
					return nil, true, true
				}
				next = append(next, d)
				continue
			}
			next = append(next, c)
		}
		clauses = next
	}
}

// eliminatePure assigns variables appearing with a single polarity.
func eliminatePure(clauses []cnf.Clause, numVars int, res *Result) ([]cnf.Clause, bool) {
	polarity := make([]int8, numVars+1) // 1 pos, 2 neg, 3 both
	for _, c := range clauses {
		for _, l := range c {
			bit := int8(1)
			if l.IsNeg() {
				bit = 2
			}
			polarity[l.Var()] |= bit
		}
	}
	pure := map[cnf.Lit]bool{}
	for v := 1; v <= numVars; v++ {
		switch polarity[v] {
		case 1:
			pure[cnf.Pos(cnf.Var(v))] = true
			res.Forced.Set(cnf.Var(v), cnf.True)
			res.Stats.PureLiterals++
		case 2:
			pure[cnf.Neg(cnf.Var(v))] = true
			res.Forced.Set(cnf.Var(v), cnf.False)
			res.Stats.PureLiterals++
		}
	}
	if len(pure) == 0 {
		return clauses, false
	}
	out := clauses[:0:0]
	for _, c := range clauses {
		satisfied := false
		for _, l := range c {
			if pure[l] {
				satisfied = true
				break
			}
		}
		if !satisfied {
			out = append(out, c)
		}
	}
	return out, true
}

// subsume removes clauses that are supersets of another clause
// (C subsumes D when C ⊆ D: every model satisfying C satisfies D, so D
// is redundant). Clauses are processed shortest-first so survivors are
// the strongest. Each C is checked only against the clauses in the
// occurrence list of its rarest literal, and the signature test
// discards most of those without reading them.
func subsume(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	order := make([]int, len(clauses))
	for i := range order {
		order[i] = i
	}
	// sort.Slice is not stable: among equal-length clauses it decides
	// which of two duplicates survives, and so the output clause order.
	// Keep this exact call.
	sort.Slice(order, func(a, b int) bool {
		return len(clauses[order[a]]) < len(clauses[order[b]])
	})
	x := newOccIndex(clauses, 0)
	removed := make([]bool, len(clauses))
	changed := false
	for r, i := range order {
		if removed[i] {
			continue
		}
		c := clauses[i]
		cands := order[r+1:] // the empty clause subsumes every later clause
		if len(c) > 0 {
			rare := c[0]
			for _, l := range c[1:] {
				if len(x.occ[l]) < len(x.occ[rare]) {
					rare = l
				}
			}
			cands = x.occ[rare]
		}
		x.mark(c)
		for _, j := range cands {
			// No order check is needed beyond j != i: a j ahead of i in
			// the order with i ⊆ j is as long as i, so equal to it, and
			// would have removed i already.
			if removed[j] || j == i || x.sig[i]&^x.sig[j] != 0 || x.marked(clauses[j]) < len(c) {
				continue
			}
			removed[j] = true
			res.Stats.ClausesSubsumed++
			changed = true
		}
	}
	if !changed {
		return clauses, false
	}
	out := clauses[:0:0]
	for i, c := range clauses {
		if !removed[i] {
			out = append(out, c)
		}
	}
	return out, true
}

// strengthen applies self-subsuming resolution: if C = A ∪ {l} and
// D ⊇ A ∪ {¬l}, the resolvent A ∪ (D \ {¬l}) subsumes D, so ¬l can be
// deleted from D. Clauses act in ascending order, each literal l of C
// in turn against occ[¬l], which loses every D it strengthens; a
// strengthened clause is a fresh slice, never an edit in place.
func strengthen(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	x := newOccIndex(clauses, 0)
	changed := false
	for i, c := range clauses {
		x.mark(c)
		for _, l := range c {
			neg := l.Negate()
			rest := x.sig[i] &^ litBit(l) // every other bit comes from C \ {l}
			kept := x.occ[neg][:0]
			for _, j := range x.occ[neg] {
				d := clauses[j]
				if rest&^x.sig[j] != 0 || x.marked(d) < len(c)-1 {
					kept = append(kept, j)
					continue
				}
				nd := make(cnf.Clause, 0, len(d)-1)
				for _, y := range d {
					if y != neg {
						nd = append(nd, y)
					}
				}
				clauses[j], x.sig[j] = nd, signature(nd)
				res.Stats.LiteralsStrength++
				changed = true
			}
			x.occ[neg] = kept
		}
	}
	return clauses, changed
}
