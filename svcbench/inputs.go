package main

import (
	"fmt"
	"math/big"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/rng"
	"repro/internal/solver"
)

// instance is one job input with its ground truth, computed at set-up
// by a solver other than the one under test: the cdcl verdict for a
// decide, the exact model count for a count, and a cdcl decide on the
// miter for an equivalence pair.
type instance struct {
	name string // generator, stratum and index, for failure reports
	task solver.Task
	// f is the formula the answer is checked against: the submitted
	// formula, or the miter of the pair for an equivalence job.
	f *cnf.Formula
	// body is the HTTP request body: DIMACS text, two instances for an
	// equivalence pair. Nil for in-process workloads.
	body []byte
	// pair is the two formulas of an equivalence job.
	pair [2]*cnf.Formula

	sat   bool     // f is satisfiable
	count *big.Int // model count of f for a count job
}

// oracle fills in the ground truth of in.
func (in *instance) oracle() {
	_, in.sat = cdcl.Solve(in.f)
	if in.task == solver.TaskCount {
		in.count = count.Count(in.f)
	}
}

// verdict is how a returned result compares with the ground truth.
type verdict struct {
	decided bool   // SAT, UNSAT, a count or an equivalence answer
	wrong   string // non-empty: why the answer contradicts the truth
}

// check compares a finished job's result with the ground truth and
// checks any returned model against the formula.
func (in *instance) check(res solver.Result, equivalent *bool) verdict {
	var v verdict
	if in.task == solver.TaskCount {
		if res.Count == nil {
			return v
		}
		v.decided = true
		if res.Count.Cmp(in.count) != 0 {
			v.wrong = fmt.Sprintf("count %s, want %s", res.Count, in.count)
		}
		return v
	}
	switch res.Status {
	case solver.StatusSat:
		v.decided = true
		switch {
		case !in.sat:
			v.wrong = "SAT on an unsatisfiable formula"
		case res.Assignment != nil && !satisfies(in.f, res.Assignment):
			v.wrong = "returned model violates a clause"
		}
	case solver.StatusUnsat:
		v.decided = true
		if in.sat {
			v.wrong = "UNSAT on a satisfiable formula"
		}
	}
	if in.task == solver.TaskEquivalent && v.decided && v.wrong == "" && equivalent != nil &&
		*equivalent != (res.Status == solver.StatusUnsat) {
		v.wrong = "equivalence answer disagrees with the miter verdict"
	}
	return v
}

// satisfies reports whether the (possibly partial) model satisfies
// every clause of f; a variable the model omits satisfies nothing.
func satisfies(f *cnf.Formula, a cnf.Assignment) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if int(l.Var()) < len(a) && a.LitValue(l) == cnf.True {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// newDecide returns a decide instance over f with its ground truth.
func newDecide(name string, f *cnf.Formula) *instance {
	in := &instance{name: name, task: solver.TaskDecide, f: f}
	in.oracle()
	return in
}

// randomFormula draws a uniform random k-CNF, or a planted satisfiable
// one, with n variables and m clauses.
func randomFormula(g *rng.Xoshiro256, n, m, k int, planted bool) *cnf.Formula {
	if planted {
		f, _ := gen.PlantedKSAT(g, n, m, k)
		return f
	}
	return gen.RandomKSAT(g, n, m, k)
}

// rename returns f under a random variable permutation, with the
// literals of each clause shuffled when shuffle is set. Clause order is
// kept: the service's canonical fingerprint is stable under renaming
// but deliberately not under clause reordering, so a renamed twin is a
// cache hit.
func rename(g *rng.Xoshiro256, f *cnf.Formula, shuffle bool) *cnf.Formula {
	perm := g.Perm(f.NumVars)
	out := cnf.New(f.NumVars)
	for _, c := range f.Clauses {
		d := make(cnf.Clause, len(c))
		for i, l := range c {
			d[i] = cnf.NewLit(cnf.Var(perm[l.Var()-1]+1), l.IsNeg())
		}
		if shuffle {
			g.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		}
		out.AddClause(d)
	}
	return out
}

// renamePair renames both halves of an equivalence pair by one
// permutation, literal order kept, so the miter the service builds is a
// renaming of the original miter with the same clause order.
func renamePair(g *rng.Xoshiro256, a, b *cnf.Formula) (*cnf.Formula, *cnf.Formula) {
	seed := g.Uint64()
	return rename(rng.New(seed), a, false), rename(rng.New(seed), b, false)
}

// equivPair returns a pair over n variables for an equivalence job:
// b is a with its clauses rotated and one clause duplicated (an
// equivalent formula), or a with one literal flipped (usually not).
func equivPair(g *rng.Xoshiro256, n int) (*cnf.Formula, *cnf.Formula) {
	a := gen.RandomKSAT(g, n, 2*n, 3)
	b := cnf.New(n)
	if g.Bool() {
		r := g.Intn(len(a.Clauses))
		for i := range a.Clauses {
			b.AddClause(a.Clauses[(i+r)%len(a.Clauses)].Clone())
		}
		b.AddClause(a.Clauses[r].Clone())
		return a, b
	}
	for _, c := range a.Clauses {
		b.AddClause(c.Clone())
	}
	c, i := g.Intn(len(b.Clauses)), g.Intn(3)
	b.Clauses[c][i] = b.Clauses[c][i].Negate()
	return a, b
}

// newEquivalent returns an equivalence instance for the pair (a, b):
// its formula is the miter the service lowers the pair to.
func newEquivalent(name string, a, b *cnf.Formula) (*instance, error) {
	miter, err := logic.EquivalenceCNF(a, b)
	if err != nil {
		return nil, err
	}
	in := &instance{name: name, task: solver.TaskEquivalent, f: miter, pair: [2]*cnf.Formula{a, b}}
	in.body = []byte(dimacs.WriteString(a, "") + dimacs.WriteString(b, ""))
	in.oracle()
	return in, nil
}

// newCount returns a count instance over f with its exact count.
func newCount(name string, f *cnf.Formula) *instance {
	in := &instance{name: name, task: solver.TaskCount, f: f}
	in.oracle()
	return in
}
