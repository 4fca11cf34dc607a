package rtw

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// goldenRun is one pinned Check: an instance, the variables left free
// (-1 = none bound, else every variable above free is bound), whether
// the wide kernel is forced on a narrow geometry, and the budget.
type goldenRun struct {
	name    string
	f       *cnf.Formula
	model   cnf.Assignment // binding values; nil binds by alternation
	free    int
	wide    bool
	samples int64
}

// goldenRuns lists the pinned checks: the paper instances, planted
// random 2- and 3-CNF at (2,4), (3,6), (4,8), (5,10) — (2,4) only as
// 2-CNF, (5,10) wide at both widths — uf20-91 (wide), and two kinds of
// input whose wide kernel sees nonzero samples: paper instances forced
// wide, and a genuinely wide single-variable formula. Each runs unbound
// and with all but one and all but two variables bound.
func goldenRuns() []goldenRun {
	type inst struct {
		name    string
		f       *cnf.Formula
		model   cnf.Assignment
		wide    bool
		samples int64
	}
	insts := []inst{
		{name: "ex5", f: gen.PaperExample5()},
		{name: "ex6", f: gen.PaperExample6()},
		{name: "ex7", f: gen.PaperExample7()},
		{name: "sat", f: gen.PaperSAT()},
		{name: "unsat", f: gen.PaperUNSAT()},
		{name: "sat-forced-wide", f: gen.PaperSAT(), wide: true},
		{name: "ex6-forced-wide", f: gen.PaperExample6(), wide: true},
	}
	g := rng.New(2024)
	for _, k := range []int{2, 3} {
		for n := max(2, k); n <= 5; n++ {
			f, model := gen.PlantedKSAT(g, n, 2*n, k)
			insts = append(insts, inst{name: fmt.Sprintf("n%dm%dk%d", n, 2*n, k), f: f, model: model})
		}
	}
	uf, ufModel := gen.PlantedKSAT(g, 20, 91, 3)
	insts = append(insts, inst{name: "uf20-91", f: uf, model: ufModel, samples: 2_000})
	units := cnf.New(1)
	for j := 0; j < 62; j++ {
		if j%10 == 9 {
			units.Add(1, -1) // c_j ∈ {-2, 0, 2}
		} else {
			units.Add(1 - 2*(j%3/2)) // x1, x1, ¬x1, ...
		}
	}
	insts = append(insts, inst{name: "n1m62-wide", f: units})

	var runs []goldenRun
	for _, in := range insts {
		samples := in.samples
		if samples == 0 {
			samples = 20_000
		}
		for _, free := range []int{-1, 1, 2} {
			if free >= in.f.NumVars {
				continue
			}
			runs = append(runs, goldenRun{
				name: fmt.Sprintf("%s/free%d", in.name, free), f: in.f, model: in.model,
				free: free, wide: in.wide, samples: samples,
			})
		}
	}
	return runs
}

// goldenResult is a Result with its floats as exact bit patterns.
type goldenResult struct {
	sat      bool
	mean, se uint64
	samples  int64
}

// rtwGolden was captured from the kernels that preceded the blocked
// factored kernel; the values must never be edited to make a kernel
// change pass.
var rtwGolden = map[string]goldenResult{
	"ex5/free-1":             {false, 0x3fed7dbf487fcb94, 0x4008b2faa0f4a2a4, 20000},
	"ex5/free1":              {false, 0x3ff758e219652bd7, 0x3ff51aef5f62dc30, 20000},
	"ex5/free2":              {false, 0x3febda5119ce075e, 0x4000d05cdb3828d5, 20000},
	"ex6/free-1":             {true, 0x3ffe48e8a71de69d, 0x3fbe5172116074c7, 20000},
	"ex6/free1":              {true, 0x3ff1cac083126e97, 0x3fb273eb65af7056, 20000},
	"ex7/free-1":             {false, 0xbf89999999999997, 0x3f846b50dea08644, 20000},
	"sat/free-1":             {true, 0x40110ff972474539, 0x3fe3df37ab1c9092, 20000},
	"sat/free1":              {false, 0xbfcb3d07c84b5dd0, 0x3fd8e953b4275f22, 20000},
	"unsat/free-1":           {false, 0x3fcd14e3bcd35a82, 0x3fe311f808e3b3ec, 20000},
	"unsat/free1":            {false, 0x3fa0624dd2f1a9f8, 0x3fd975974f689d5c, 20000},
	"sat-forced-wide/free-1": {true, 0x401009d495182a99, 0x3fe3476eaeecedd0, 20000},
	"sat-forced-wide/free1":  {false, 0x3fa47ae147ae147b, 0x3fd8e78a6e5774a0, 20000},
	"ex6-forced-wide/free-1": {true, 0x3fff4f0d844d013b, 0x3fbea99f30597d7f, 20000},
	"ex6-forced-wide/free1":  {true, 0x3fef2474538ef34d, 0x3fb264b99851f406, 20000},
	"n2m4k2/free-1":          {false, 0x3ff5dcc63f141208, 0x3fe2abc42714b65d, 20000},
	"n2m4k2/free1":           {false, 0x3ff6fd21ff2e48e8, 0x3fd956b684a9a11b, 20000},
	"n3m6k2/free-1":          {false, 0xc033a92a30553262, 0x402dac10640050f2, 20000},
	"n3m6k2/free1":           {false, 0xbffa36e2eb1c4334, 0x402d2609d77f9042, 20000},
	"n3m6k2/free2":           {false, 0x40289374bc6a7efa, 0x403568d8639da0f4, 20000},
	"n4m8k2/free-1":          {false, 0x0, 0x0, 20000},
	"n4m8k2/free1":           {false, 0x0, 0x0, 20000},
	"n4m8k2/free2":           {false, 0x0, 0x0, 20000},
	"n5m10k2/free-1":         {false, 0x0, 0x0, 20000},
	"n5m10k2/free1":          {false, 0x0, 0x0, 20000},
	"n5m10k2/free2":          {false, 0x0, 0x0, 20000},
	"n3m6k3/free-1":          {false, 0x407119ce075f6fd2, 0x40712bfa0f8e0359, 20000},
	"n3m6k3/free1":           {false, 0xc061b71758e21965, 0x4061e2f03440eba9, 20000},
	"n3m6k3/free2":           {false, 0x4055b573eab3679e, 0x4065b60d3664f560, 20000},
	"n4m8k3/free-1":          {false, 0x0, 0x0, 20000},
	"n4m8k3/free1":           {false, 0x0, 0x0, 20000},
	"n4m8k3/free2":           {false, 0x0, 0x0, 20000},
	"n5m10k3/free-1":         {false, 0x0, 0x0, 20000},
	"n5m10k3/free1":          {false, 0x0, 0x0, 20000},
	"n5m10k3/free2":          {false, 0x0, 0x0, 20000},
	"uf20-91/free-1":         {false, 0x0, 0x0, 2000},
	"uf20-91/free1":          {false, 0x0, 0x0, 2000},
	"uf20-91/free2":          {false, 0x0, 0x0, 2000},
	"n1m62-wide/free-1":      {false, 0x3fad7dbf487fcb92, 0x3fb5ac9dfe92bbaa, 20000},
}

// TestRTWGolden pins every Result field of the checks in goldenRuns,
// bit for bit, so a kernel rewrite cannot move a single sample.
func TestRTWGolden(t *testing.T) {
	for i, run := range goldenRuns() {
		e, err := New(run.f, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		if run.wide {
			if e.Wide() {
				t.Fatalf("%s: instance is wide already", run.name)
			}
			e.wide = true
		}
		if run.free >= 0 {
			for v := run.free + 1; v <= run.f.NumVars; v++ {
				val := cnf.True
				if run.model != nil {
					val = run.model.Get(cnf.Var(v))
				} else if v%2 == 0 {
					val = cnf.False
				}
				e.Bind(cnf.Var(v), val)
			}
		}
		r := e.Check(run.samples, 4)
		got := goldenResult{r.Satisfiable, math.Float64bits(r.Mean), math.Float64bits(r.StdErr), r.Samples}
		want, ok := rtwGolden[run.name]
		if !ok || got != want {
			t.Errorf("%s: got %+v (mean %v, stderr %v); golden entry:\n\t%q: {%v, %#x, %#x, %d},",
				run.name, r, r.Mean, r.StdErr, run.name, got.sat, got.mean, got.se, got.samples)
		}
	}
}
