package rtw

import (
	"context"
	"math"
	"math/big"
	"os"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/solver"
)

// forceWide returns two engines over the same formula and seed: one on
// the int64 path, one forced onto the wide big.Int path. Both draw from
// identically seeded banks, so their sample streams correspond 1:1.
func forceWide(t *testing.T, f *cnf.Formula, seed uint64) (exact, wide *Engine) {
	t.Helper()
	exact, err := New(f, seed)
	if err != nil {
		t.Fatal(err)
	}
	if exact.wide {
		t.Fatal("test instance unexpectedly wide already")
	}
	wide, err = New(f, seed)
	if err != nil {
		t.Fatal(err)
	}
	wide.wide = true
	return exact, wide
}

// TestWideKernelMatchesInt64Kernel is the parity proof: on geometries
// where both assemblies are valid, the kernel's big.Int assembly must
// produce exactly the integers the int64 oracle Step produces, sample
// for sample, bindings included.
func TestWideKernelMatchesInt64Kernel(t *testing.T) {
	formulas := []*cnf.Formula{
		gen.PaperSAT(),
		gen.PaperUNSAT(),
		gen.PaperExample5(),
		cnf.FromClauses([]int{1}, []int{-1}),
		cnf.FromClauses([]int{1, 2, 3}, []int{-2, 3}, []int{1, -3}, []int{-1, 2}),
	}
	for fi, f := range formulas {
		exact, wide := forceWide(t, f, uint64(40+fi))
		bindings := []cnf.Assignment{
			cnf.NewAssignment(f.NumVars), // unbound
			func() cnf.Assignment { // partially bound
				a := cnf.NewAssignment(f.NumVars)
				a.Set(1, cnf.True)
				return a
			}(),
		}
		for bi, b := range bindings {
			exact.BindAll(b)
			wide.BindAll(b)
			for blk := 0; blk < 5; blk++ {
				for s, got := range blockSamples(wide, 100) {
					want := exact.Step()
					if !got.IsInt64() || got.Int64() != want {
						t.Fatalf("formula %d binding %d block %d sample %d: wide %s vs exact %d",
							fi, bi, blk, s, got.String(), want)
					}
				}
			}
		}
	}
}

// TestWideCheckVerdictMatchesInt64 runs the full decision loop through
// both kernels; the verdicts must agree and the means must match to
// float64 rounding (the wide path computes exact sums, Welford rounds).
func TestWideCheckVerdictMatchesInt64(t *testing.T) {
	for fi, f := range []*cnf.Formula{gen.PaperSAT(), gen.PaperUNSAT()} {
		exact, wide := forceWide(t, f, uint64(7+fi))
		re := exact.Check(60_000, 4)
		rw := wide.Check(60_000, 4)
		if re.Satisfiable != rw.Satisfiable || re.Samples != rw.Samples {
			t.Fatalf("formula %d: exact %+v vs wide %+v", fi, re, rw)
		}
		if math.Abs(re.Mean-rw.Mean) > 1e-9*(1+math.Abs(re.Mean)) {
			t.Errorf("formula %d: mean %v vs %v", fi, re.Mean, rw.Mean)
		}
		if math.Abs(re.StdErr-rw.StdErr) > 1e-9*(1+re.StdErr) {
			t.Errorf("formula %d: stderr %v vs %v", fi, re.StdErr, rw.StdErr)
		}
	}
}

// TestWideKernelOpensSATLIBScale is the ROADMAP item: uf20-91-scale
// geometry used to be rejected at construction; it must now build a
// wide engine, sample, honor cancellation, and return an honest
// (UNKNOWN-gated) verdict through the registry.
func TestWideKernelOpensSATLIBScale(t *testing.T) {
	data, err := os.ReadFile("../../testdata/uf8-satlib.cnf")
	if err != nil {
		t.Fatal(err)
	}
	f, err := dimacs.ReadString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	// n·m = 8·24 = 192: far past the ~60-bit int64 bound.
	eng, err := New(f, 1)
	if err != nil {
		t.Fatalf("SATLIB-scale construction must succeed now: %v", err)
	}
	if !eng.Wide() {
		t.Fatal("engine should have selected the wide kernel")
	}
	r, err := eng.CheckCtx(context.Background(), 5_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 5_000 {
		t.Fatalf("consumed %d samples, want 5000", r.Samples)
	}

	// Through the registry: a definitive-or-honest verdict, no error.
	s, err := solver.New("rtw", solver.WithMaxSamples(2_000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == solver.StatusUnsat {
		t.Fatalf("a 2k-sample run cannot certify UNSAT at n·m=192 (SNR gate): %+v", res)
	}

	// Cancellation: an expired deadline must surface promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = eng.CheckCtx(ctx, 1<<40, 4)
	if err == nil {
		t.Fatal("cancellation must propagate out of the wide kernel")
	}
}

// TestWideGuardsInt64Kernels pins that a wide engine never takes the
// int64/Welford path: its Result must be exactly the one the exact
// big.Int moments of the oracle's samples give, down to the last bit
// of the mean, on a genuinely wide formula with nonzero samples
// (n=1, so no clause factor vanishes except the tautologies').
func TestWideGuardsInt64Kernels(t *testing.T) {
	f := cnf.New(1)
	for j := 0; j < 70; j++ {
		if j%10 == 0 {
			f.Add(1, -1)
		} else {
			f.Add(1)
		}
	}
	kernel, err := New(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !kernel.Wide() {
		t.Fatal("70 clauses on one variable should be wide")
	}
	oracle, err := New(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 5_000
	var s, sum, sum2 big.Int
	nonzero := 0
	for i := 0; i < samples; i++ {
		oracle.stepWide(&s)
		if s.Sign() != 0 {
			nonzero++
		}
		sum.Add(&sum, &s)
		sum2.Add(&sum2, s.Mul(&s, &s))
	}
	if nonzero == 0 {
		t.Fatal("test instance drew no nonzero samples")
	}
	want := oracle.wideResult(&sum, &sum2, samples, 4)
	if got := kernel.Check(samples, 4); got != want {
		t.Fatalf("wide check %+v, exact moments give %+v", got, want)
	}
}
