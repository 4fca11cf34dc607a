package simplify

// The preprocessing passes as they were before occurrence lists: a
// map-per-clause-pair subsumption, a scan-every-clause strengthening
// and a rescan-per-variable elimination. They are quadratic in m but
// short and obviously right, so they stay here as the oracle the
// occurrence-list passes must match exactly, Result for Result.

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// oracleSimplify is Simplify driving the oracle passes.
func oracleSimplify(f *cnf.Formula, opts Options) *Result {
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
			if c, ch := oracleSubsume(clauses, res); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableStrengthen {
			if c, ch := oracleStrengthen(clauses, res); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableBVE {
			c, conflict, ch := oracleEliminate(clauses, f.NumVars, res)
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

// litSet returns a membership set for the clause.
func litSet(c cnf.Clause) map[cnf.Lit]bool {
	s := make(map[cnf.Lit]bool, len(c))
	for _, l := range c {
		s[l] = true
	}
	return s
}

// oracleSubsume removes clauses that are supersets of another clause
// (C subsumes D when C ⊆ D: every model satisfying C satisfies D, so D
// is redundant). Clauses are processed shortest-first so survivors are
// the strongest.
func oracleSubsume(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	order := make([]int, len(clauses))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(clauses[order[a]]) < len(clauses[order[b]])
	})
	removed := make([]bool, len(clauses))
	changed := false
	for oi, i := range order {
		if removed[i] {
			continue
		}
		ci := litSet(clauses[i])
		for _, j := range order[oi+1:] {
			if removed[j] || len(clauses[j]) < len(clauses[i]) {
				continue
			}
			if containsAll(litSet(clauses[j]), ci) {
				removed[j] = true
				res.Stats.ClausesSubsumed++
				changed = true
			}
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

// containsAll reports whether superset contains every literal of sub.
func containsAll(superset, sub map[cnf.Lit]bool) bool {
	for l := range sub {
		if !superset[l] {
			return false
		}
	}
	return true
}

// oracleStrengthen applies self-subsuming resolution: if C = A ∪ {l} and
// D ⊇ A ∪ {¬l}, the resolvent A ∪ (D \ {¬l}) subsumes D, so ¬l can be
// deleted from D.
func oracleStrengthen(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	changed := false
	for i, c := range clauses {
		for _, l := range c {
			rest := make(map[cnf.Lit]bool, len(c)-1)
			for _, x := range c {
				if x != l {
					rest[x] = true
				}
			}
			neg := l.Negate()
			for j, d := range clauses {
				if i == j || !d.Contains(neg) {
					continue
				}
				ds := litSet(d)
				delete(ds, neg)
				if containsAll(ds, rest) {
					// Remove ¬l from d.
					nd := make(cnf.Clause, 0, len(d)-1)
					for _, x := range d {
						if x != neg {
							nd = append(nd, x)
						}
					}
					clauses[j] = nd
					res.Stats.LiteralsStrength++
					changed = true
				}
			}
		}
	}
	return clauses, changed
}

// oracleEliminate runs one sweep of bounded variable elimination. conflict
// reports that an empty resolvent was derived (only possible when both
// sides are unit clauses, i.e. (v)·(¬v) — normally unit propagation has
// removed those first).
func oracleEliminate(clauses []cnf.Clause, numVars int, res *Result) (out []cnf.Clause, conflict, changed bool) {
	// Occurrence lists, rebuilt per sweep (elimination invalidates them).
	for v := cnf.Var(1); int(v) <= numVars; v++ {
		var pos, neg []int
		for i, c := range clauses {
			switch {
			case c.Contains(cnf.Pos(v)):
				pos = append(pos, i)
			case c.Contains(cnf.Neg(v)):
				neg = append(neg, i)
			}
		}
		if len(pos) == 0 || len(neg) == 0 {
			continue // absent or pure: the pure pass handles it
		}
		if len(pos)*len(neg) > maxResolvePairs {
			continue
		}
		resolvents := make([]cnf.Clause, 0, len(pos)*len(neg))
		for _, pi := range pos {
			for _, ni := range neg {
				r, ok := oracleResolve(clauses[pi], clauses[ni], v)
				if !ok {
					continue // tautological resolvent
				}
				if len(r) == 0 {
					return nil, true, true
				}
				resolvents = append(resolvents, r)
			}
		}
		resolvents = oracleDedup(resolvents)
		if len(resolvents) > len(pos)+len(neg) {
			continue // elimination would grow the formula
		}

		// Commit: record the removed clauses for reconstruction, splice
		// in the resolvents.
		elim := Elimination{V: v}
		next := make([]cnf.Clause, 0, len(clauses)-len(pos)-len(neg)+len(resolvents))
		touched := make(map[int]bool, len(pos)+len(neg))
		for _, i := range pos {
			touched[i] = true
		}
		for _, i := range neg {
			touched[i] = true
		}
		for i, c := range clauses {
			if touched[i] {
				elim.Clauses = append(elim.Clauses, c)
			} else {
				next = append(next, c)
			}
		}
		next = append(next, resolvents...)
		res.Eliminations = append(res.Eliminations, elim)
		res.Stats.VarsEliminated++
		clauses = next
		changed = true
	}
	return clauses, false, changed
}

// oracleResolve computes the resolvent of p (containing v) and n (containing
// ¬v) on v. ok is false when the resolvent is tautological.
func oracleResolve(p, n cnf.Clause, v cnf.Var) (cnf.Clause, bool) {
	seen := make(map[cnf.Lit]bool, len(p)+len(n))
	out := make(cnf.Clause, 0, len(p)+len(n)-2)
	for _, l := range p {
		if l.Var() == v {
			continue
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	for _, l := range n {
		if l.Var() == v {
			continue
		}
		if seen[l.Negate()] {
			return nil, false
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out, true
}

// oracleDedup removes exact duplicate clauses (same literal multiset;
// clauses are compared as sets since resolve dedups literals).
func oracleDedup(clauses []cnf.Clause) []cnf.Clause {
	out := clauses[:0:0]
	for i, c := range clauses {
		dup := false
		for _, d := range out {
			if oracleSame(c, d) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, clauses[i])
		}
	}
	return out
}

// oracleSame reports set equality of two duplicate-free clauses.
func oracleSame(a, b cnf.Clause) bool {
	if len(a) != len(b) {
		return false
	}
	for _, l := range a {
		if !b.Contains(l) {
			return false
		}
	}
	return true
}

// oracleOptions are the option sets the oracle comparisons run under:
// every pass, the count pipeline's subset, and no unit propagation, so
// strengthening and elimination meet unit clauses themselves.
var oracleOptions = []Options{
	{},
	{DisablePure: true, DisableBVE: true},
	{DisableUnits: true},
}

// requireOracle fails t unless Simplify and the oracle return the same
// Result, field for field.
func requireOracle(t *testing.T, f *cnf.Formula, opts Options) {
	t.Helper()
	got, want := Simplify(f, opts), oracleSimplify(f, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Simplify(%s, %+v) differs from the oracle:\ngot  %+v\nwant %+v", f, opts, got, want)
	}
}

func TestSimplifyMatchesOracle(t *testing.T) {
	g := rng.New(41)
	for trial := range 3000 {
		n := 2 + g.Intn(23)
		m := 1 + g.Intn(4*n)
		f := mixedFormula(g, n, m, []int{4, 16, 64}[trial%3])
		for _, opts := range oracleOptions {
			requireOracle(t, f, opts)
		}
	}
}

// decodeFormula reads a fuzz input: byte 0 selects the disabled passes
// (one bit each), byte 1 the variable count (1..16); every later byte
// is a literal (variable 1+(b>>1)%n, negated when b is odd) and a zero
// byte ends a clause. Inputs are cut at 512 bytes to keep the oracle
// quick.
func decodeFormula(data []byte) (*cnf.Formula, Options) {
	if len(data) < 2 {
		return cnf.New(0), Options{}
	}
	data = data[:min(len(data), 512)]
	bits := data[0]
	opts := Options{
		DisableUnits:       bits&1 != 0,
		DisablePure:        bits&2 != 0,
		DisableSubsumption: bits&4 != 0,
		DisableStrengthen:  bits&8 != 0,
		DisableBVE:         bits&16 != 0,
	}
	n := 1 + int(data[1])%16
	f := cnf.New(n)
	var c cnf.Clause
	for _, b := range data[2:] {
		if b == 0 {
			f.Clauses = append(f.Clauses, c)
			c = nil
			continue
		}
		c = append(c, cnf.NewLit(cnf.Var(1+int(b>>1)%n), b&1 == 1))
	}
	if c != nil {
		f.Clauses = append(f.Clauses, c)
	}
	return f, opts
}

// FuzzSimplifyMatchesOracle is seeded from testdata/fuzz, encoded
// mixed-width formulas under several option sets.
func FuzzSimplifyMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, opts := decodeFormula(data)
		requireOracle(t, formula, opts)
	})
}
