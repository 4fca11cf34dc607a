package rtw

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// blockSamples runs one k-sample block of the production kernel and
// returns its exact samples, assembled as CheckCtx assembles them: in
// int64 on narrow engines, through the big.Int accumulator on wide
// ones.
func blockSamples(e *Engine, k int) []big.Int {
	shift := e.shift()
	b := e.fillBlock(k)
	out := make([]big.Int, k)
	for s := range out {
		t, ok := e.factor(b, k, s)
		switch {
		case !ok:
		case e.wide:
			e.addWide(t, shift)
			out[s].Set(&e.wsc.s)
		default:
			out[s].SetInt64(e.sample64(t, shift))
		}
	}
	return out
}

// randomFormula draws n variables and m clauses of 1..3 literals with
// repeats allowed, so duplicate and complementary literals in one
// clause are covered too.
func randomFormula(g *rng.Xoshiro256, n, m int) *cnf.Formula {
	f := cnf.New(n)
	for j := 0; j < m; j++ {
		c := make(cnf.Clause, 1+g.Intn(3))
		for i := range c {
			c[i] = cnf.NewLit(cnf.Var(1+g.Intn(n)), g.Bool())
		}
		f.AddClause(c)
	}
	return f
}

// randomBinding leaves each variable free, true or false at random.
func randomBinding(g *rng.Xoshiro256, n int) cnf.Assignment {
	a := cnf.NewAssignment(n)
	for v := 1; v <= n; v++ {
		switch g.Intn(3) {
		case 1:
			a.Set(cnf.Var(v), cnf.True)
		case 2:
			a.Set(cnf.Var(v), cnf.False)
		}
	}
	return a
}

// TestBlockKernelMatchesOracle is the block kernel's conformance test:
// over random geometries, bindings and block sizes, every sample equals
// the scalar oracle's — Step's int64 on narrow engines, stepWide's
// big.Int on wide ones, including narrow geometries forced wide so the
// big.Int assembly sees nonzero samples.
func TestBlockKernelMatchesOracle(t *testing.T) {
	g := rng.New(5)
	sizes := []int{1, 3, 4, 7, 256}
	var want big.Int
	for trial := 0; trial < 600; trial++ {
		var f *cnf.Formula
		switch {
		case trial%20 == 0:
			f = gen.RandomKSAT(g, 5, 10, 3) // wide
		case trial%20 == 1:
			f = gen.PaperSAT()
		default:
			f = randomFormula(g, 1+g.Intn(6), 1+g.Intn(10))
		}
		seed := uint64(100 + trial)
		kernel, err := New(f, seed)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := New(f, seed)
		if err != nil {
			t.Fatal(err)
		}
		if trial%3 == 2 {
			kernel.wide, oracle.wide = true, true
		}
		a := randomBinding(g, f.NumVars)
		kernel.BindAll(a)
		oracle.BindAll(a)
		for i := 0; i < len(sizes); i++ {
			k := sizes[(trial+i)%len(sizes)]
			for s, got := range blockSamples(kernel, k) {
				if oracle.wide {
					oracle.stepWide(&want)
				} else {
					want.SetInt64(oracle.Step())
				}
				if got.Cmp(&want) != 0 {
					t.Fatalf("trial %d %s (wide=%v, binding %s) block %d sample %d: kernel %s, oracle %s",
						trial, f, kernel.wide, a, k, s, got.String(), want.String())
				}
			}
		}
	}
}

// TestCheckCtxMatchesScalarAccumulation pins the block CheckCtx to the
// verdict and sample count of a straightforward scalar run over the
// same stream.
func TestCheckCtxMatchesScalarAccumulation(t *testing.T) {
	f := gen.PaperSAT()
	blockEng, err := New(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	scalarEng, err := New(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 20k samples: the v2 streams at this seed need more than the old
	// 5k to clear theta=4 (stream re-pin for the v2 contract).
	const samples = 20_000
	r, err := blockEng.CheckCtx(context.Background(), samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := 0; i < samples; i++ {
		sum += scalarEng.Step()
	}
	if r.Samples != samples {
		t.Fatalf("consumed %d samples, want %d", r.Samples, samples)
	}
	// The integer sample stream is identical, so the mean must agree up
	// to the (tiny) difference between blocked and sequential float
	// accumulation.
	want := float64(sum) / samples
	if diff := r.Mean - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("block mean %v vs scalar mean %v", r.Mean, want)
	}
	if !r.Satisfiable {
		t.Fatal("PaperSAT must test satisfiable")
	}
}

// TestCheckBlockSizeNeverChangesVerdict pins the cache-aware batch
// size contract at the Check level: any block size draws the same
// integer sample stream, so the verdict (and sample count) must be
// invariant; only the Welford merge order — and so at most ulps of the
// float mean — may differ.
func TestCheckBlockSizeNeverChangesVerdict(t *testing.T) {
	g := rng.New(17)
	for _, f := range []*cnf.Formula{
		gen.PaperSAT(), gen.PaperUNSAT(), gen.RandomKSAT(g, 5, 8, 3),
	} {
		ref, err := New(f, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Check(20_000, 4)
		for _, block := range []int{16, 100, 256} {
			e, err := New(f, 3)
			if err != nil {
				t.Fatal(err)
			}
			e.block = block
			got := e.Check(20_000, 4)
			if got.Satisfiable != want.Satisfiable || got.Samples != want.Samples {
				t.Errorf("%s block=%d: (%v, %d samples) != (%v, %d samples)",
					f, block, got.Satisfiable, got.Samples, want.Satisfiable, want.Samples)
			}
		}
	}
}

// TestWarmCheckAllocs pins the block scratch reuse: a warm narrow check
// allocates nothing, and a wide one allocates only its fixed big.Float
// result assembly, never per sample or per block.
func TestWarmCheckAllocs(t *testing.T) {
	ctx := context.Background()
	narrow, err := New(gen.PaperSAT(), 1)
	if err != nil {
		t.Fatal(err)
	}
	narrow.Check(10_000, 4)
	if a := testing.AllocsPerRun(5, func() { narrow.CheckCtx(ctx, 10_000, 4) }); a != 0 {
		t.Errorf("warm narrow check: %v allocs, want 0", a)
	}

	wide, err := New(gen.RandomKSAT(rng.New(3), 5, 10, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !wide.Wide() {
		t.Fatal("(5,10) 3-CNF should be wide")
	}
	wide.Check(10_000, 4)
	short := testing.AllocsPerRun(5, func() { wide.CheckCtx(ctx, 1_000, 4) })
	long := testing.AllocsPerRun(5, func() { wide.CheckCtx(ctx, 10_000, 4) })
	if long != short {
		t.Errorf("warm wide check: %v allocs at 1k samples, %v at 10k; want no per-block allocs", short, long)
	}
}

// BenchmarkRTWCheck measures a whole check at a fixed sample budget on
// a narrow geometry and two wide ones.
func BenchmarkRTWCheck(b *testing.B) {
	g := rng.New(9)
	for _, bc := range []struct {
		name    string
		f       *cnf.Formula
		samples int64
	}{
		{"n4m8", gen.RandomKSAT(g, 4, 8, 3), 100_000},
		{"n5m10", gen.RandomKSAT(g, 5, 10, 3), 100_000},
		{"uf20-91", gen.RandomKSAT(g, 20, 91, 3), 5_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := New(bc.f, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Reset(bc.f)
				e.Check(bc.samples, 4)
			}
		})
	}
}
