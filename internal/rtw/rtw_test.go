package rtw

import (
	"context"
	"math"
	"math/big"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/solver"
)

func TestStepMatchesHyperspaceEvaluator(t *testing.T) {
	// With the same seed, the int64 engine must produce exactly the
	// float S_N samples of the generic evaluator over an RTW bank.
	for _, f := range []*cnf.Formula{
		gen.PaperExample6(), gen.PaperExample7(), gen.PaperSAT(), gen.PaperExample5(),
	} {
		e, err := New(f, 42)
		if err != nil {
			t.Fatal(err)
		}
		bank := noise.NewBank(noise.RTW, 42, f.NumVars, f.NumClauses())
		ev := hyperspace.New(f, bank)
		for step := 0; step < 200; step++ {
			got := e.Step()
			want := ev.SampleAt(uint64(step)).S
			if float64(got) != want {
				t.Fatalf("%s step %d: int engine %d, float engine %v", f, step, got, want)
			}
		}
	}
}

func TestCheckDecisions(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		sat  bool
	}{
		{"Example6", gen.PaperExample6(), true},
		{"Example7", gen.PaperExample7(), false},
		{"S_SAT", gen.PaperSAT(), true},
		{"S_UNSAT", gen.PaperUNSAT(), false},
	} {
		e, err := New(tc.f, 7)
		if err != nil {
			t.Fatal(err)
		}
		r := e.Check(400_000, 4)
		if r.Satisfiable != tc.sat {
			t.Errorf("%s: got %v, want %v (%+v)", tc.name, r.Satisfiable, tc.sat, r)
		}
	}
}

func TestMeanConvergesToWeightedCount(t *testing.T) {
	// RTW sources have sigma^2 = 1, so mean(S_N) -> K' = 2 on Example 6.
	e, err := New(gen.PaperExample6(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Check(400_000, 4)
	if math.Abs(r.Mean-2) > 0.2 {
		t.Errorf("mean = %v, want ~2", r.Mean)
	}
}

func TestBindingMirrorsAlgorithm2(t *testing.T) {
	e, err := New(gen.PaperExample6(), 5)
	if err != nil {
		t.Fatal(err)
	}
	e.Bind(1, cnf.True)
	if r := e.Check(300_000, 4); !r.Satisfiable {
		t.Errorf("x1 subspace should be SAT: %+v", r)
	}
	e.Bind(2, cnf.True)
	if r := e.Check(300_000, 4); r.Satisfiable {
		t.Errorf("x1·x2 subspace should be UNSAT: %+v", r)
	}
	e.BindAll(cnf.NewAssignment(2))
	if r := e.Check(300_000, 4); !r.Satisfiable {
		t.Errorf("unbound check should be SAT again: %+v", r)
	}
}

func TestSamplesAreIntegers(t *testing.T) {
	e, err := New(gen.PaperSAT(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// All samples are integers by construction (int64 return); verify
	// they stay within the declared bound 2^n·prod(k_j·2^(n-1)).
	bound := big.NewInt(int64(4) * 2 * 2 * 2 * 2 * 16) // loose: 2^2 · (2·2^1)^4
	for _, s := range blockSamples(e, 1000) {
		if s.CmpAbs(bound) > 0 {
			t.Fatalf("sample %s exceeds bound %s", s.String(), bound)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(cnf.New(0), 1); err == nil {
		t.Error("zero variables accepted")
	}
	f := cnf.New(2)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if _, err := New(f, 1); err == nil {
		t.Error("empty clause accepted")
	}
	// Overflow guard: a formula with huge n·m no longer fails — it
	// selects the exact wide kernel instead of the int64 one.
	big := cnf.New(64)
	for j := 0; j < 64; j++ {
		big.Add(j%64+1, -(((j + 1) % 64) + 1))
	}
	e, err := New(big, 1)
	if err != nil {
		t.Errorf("overflow-prone instance must take the wide fallback, got %v", err)
	} else if !e.Wide() {
		t.Error("overflow-prone instance should be on the wide kernel")
	}
}

func TestZeroVarianceUnsatStaysUnsat(t *testing.T) {
	// Tiny sample budgets can produce all-zero samples on UNSAT
	// instances; the decision must remain UNSAT.
	e, err := New(gen.PaperExample7(), 11)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Check(16, 4)
	if r.Satisfiable {
		t.Errorf("sparse UNSAT run misclassified: %+v", r)
	}
}

// TestSolverReportsAccel pins the registry adapter's provenance: the
// fill runs through the bank's RTW kernel (AVX2 on amd64), the
// evaluation through the engine's own kernel, never the block
// evaluator.
func TestSolverReportsAccel(t *testing.T) {
	s, err := solver.New("rtw", solver.WithMaxSamples(1_000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), gen.PaperSAT())
	if err != nil {
		t.Fatal(err)
	}
	if want := noise.FillAccelKernel(noise.RTW, noise.StreamV2); res.Stats.FillAccel != want {
		t.Errorf("fill_accel %q, want %q", res.Stats.FillAccel, want)
	}
	if res.Stats.EvalAccel != "none" {
		t.Errorf("eval_accel %q, want none", res.Stats.EvalAccel)
	}
}
