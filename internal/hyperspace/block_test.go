package hyperspace

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/noise"
	"repro/internal/rng"
)

// allFamilies is every stochastic noise family the bank supports.
var allFamilies = []noise.Family{
	noise.UniformHalf, noise.UniformUnit, noise.Gaussian, noise.RTW, noise.Pulse,
}

// TestStepBlockBitIdenticalToStep is the block-kernel conformance test:
// for every noise family, StepBlock must reproduce the exact float64
// values of repeated Step over the same streams — including with
// bindings applied and across uneven block sizes — so verdicts and
// replay determinism are untouched by the batched path.
func TestStepBlockBitIdenticalToStep(t *testing.T) {
	g := rng.New(7)
	formulas := []*cnf.Formula{
		gen.PaperSAT(),
		gen.PaperExample5(),
		gen.RandomKSAT(g, 6, 14, 3),
	}
	blocks := []int{1, 3, 16, 97, 256}
	for _, fam := range allFamilies {
		for fi, f := range formulas {
			n, m := f.NumVars, f.NumClauses()
			scalar := New(f, noise.NewBank(fam, 42, n, m))
			block := New(f, noise.NewBank(fam, 42, n, m))

			// Bind a couple of variables identically on both evaluators so
			// the reduced-tau branches are exercised too.
			scalar.Bind(1, cnf.True)
			block.Bind(1, cnf.True)
			if n > 2 {
				scalar.Bind(2, cnf.False)
				block.Bind(2, cnf.False)
			}

			for _, k := range blocks {
				out := make([]float64, k)
				block.StepBlock(out)
				for s := 0; s < k; s++ {
					want := scalar.Step().S
					if out[s] != want {
						t.Fatalf("family %v formula %d block %d sample %d: StepBlock %v != Step %v",
							fam, fi, k, s, out[s], want)
					}
				}
			}
		}
	}
}

// TestStepBlockInterleavesWithStep checks the stream contract: Step and
// StepBlock may alternate on one evaluator and still consume the same
// per-source streams as an all-scalar run.
func TestStepBlockInterleavesWithStep(t *testing.T) {
	f := gen.PaperExample6()
	n, m := f.NumVars, f.NumClauses()
	ref := New(f, noise.NewBank(noise.UniformUnit, 9, n, m))
	mixed := New(f, noise.NewBank(noise.UniformUnit, 9, n, m))

	var got, want []float64
	for round := 0; round < 5; round++ {
		want = append(want, ref.Step().S)
		buf := make([]float64, 4)
		for range buf {
			want = append(want, ref.Step().S)
		}

		got = append(got, mixed.Step().S)
		mixed.StepBlock(buf)
		got = append(got, buf...)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: interleaved %v != scalar %v", i, got[i], want[i])
		}
	}
}

// TestStepBlockShrinkingBlocksReuseScratch covers the scratch-reuse path:
// a large block followed by smaller ones must stay bit-identical (the
// smaller block re-strides a prefix of the large allocation).
func TestStepBlockShrinkingBlocksReuseScratch(t *testing.T) {
	f := gen.PaperSAT()
	n, m := f.NumVars, f.NumClauses()
	scalar := New(f, noise.NewBank(noise.Gaussian, 3, n, m))
	block := New(f, noise.NewBank(noise.Gaussian, 3, n, m))
	for _, k := range []int{128, 5, 64, 1, 128} {
		out := make([]float64, k)
		block.StepBlock(out)
		for s := 0; s < k; s++ {
			if want := scalar.Step().S; out[s] != want {
				t.Fatalf("block %d sample %d: %v != %v", k, s, out[s], want)
			}
		}
	}
}

// TestStepBlockAtClaimsDisjointRanges pins the seekable contract the
// worker-invariant sampler stands on: several evaluators (sharing
// nothing but the seed) evaluating disjoint sample-index ranges out of
// order reproduce, bit for bit, one evaluator's sequential pass — for
// every noise family and for uneven range boundaries.
func TestStepBlockAtClaimsDisjointRanges(t *testing.T) {
	f := gen.PaperExample5()
	n, m := f.NumVars, f.NumClauses()
	const total = 200
	ranges := []struct{ base, k int }{
		{137, 63}, {0, 17}, {64, 73}, {17, 47},
	}
	for _, fam := range allFamilies {
		seq := New(f, noise.NewBank(fam, 23, n, m))
		want := make([]float64, total)
		seq.StepBlock(want)

		got := make([]float64, total)
		for _, r := range ranges {
			ev := New(f, noise.NewBank(fam, 23, n, m))
			ev.StepBlockAt(uint64(r.base), got[r.base:r.base+r.k])
		}
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("family %v: claimed-range sample %d = %v, sequential = %v",
					fam, s, got[s], want[s])
			}
		}
	}
}

// TestSeekRewindsStream pins Seek/Cursor: rewinding to a base replays
// the identical samples, which is what Evaluator.Reset relies on for
// the warm path.
func TestSeekRewindsStream(t *testing.T) {
	f := gen.PaperSAT()
	n, m := f.NumVars, f.NumClauses()
	ev := New(f, noise.NewBank(noise.UniformUnit, 5, n, m))
	first := make([]float64, 32)
	ev.StepBlock(first)
	if ev.Cursor() != 32 {
		t.Fatalf("cursor = %d after 32 samples, want 32", ev.Cursor())
	}
	ev.Seek(0)
	again := make([]float64, 32)
	ev.StepBlock(again)
	for s := range first {
		if first[s] != again[s] {
			t.Fatalf("replay after Seek(0) diverged at sample %d", s)
		}
	}
}

// TestStepBlockAtOddGeometry pins the block path's bit-equality with
// the scalar kernel on the shapes the vector kernels find hardest: odd
// block lengths (which force the assembly's len&^3 prefix plus a
// portable tail of every residue) and stream bases that are not
// multiples of the vector width (so lanes straddle the counter
// arbitrarily). The scalar Step path never touches the row primitives,
// so on an AVX2 amd64 host this pins AVX2-vs-scalar exactly; elsewhere
// it pins portable-block-vs-scalar.
func TestStepBlockAtOddGeometry(t *testing.T) {
	g := rng.New(31)
	f := gen.RandomKSAT(g, 5, 11, 3)
	n, m := f.NumVars, f.NumClauses()
	bases := []uint64{0, 1, 2, 3, 5, 1021, 1 << 40}
	for _, fam := range allFamilies {
		scalar := New(f, noise.NewBank(fam, 77, n, m))
		block := New(f, noise.NewBank(fam, 77, n, m))
		for _, k := range []int{1, 3, 7, 17, 255} {
			out := make([]float64, k)
			for _, base := range bases {
				block.StepBlockAt(base, out)
				scalar.Seek(base)
				for s := 0; s < k; s++ {
					if want := scalar.Step().S; out[s] != want {
						t.Fatalf("family %v k=%d base=%d sample %d: StepBlockAt %v != Step %v",
							fam, k, base, s, out[s], want)
					}
				}
			}
		}
	}
}

// TestStepBlockAtOddGeometryWithBindings repeats the odd-shape sweep
// with partial bindings, covering the tau branch kernels (select
// positive, select negative, sum) on unaligned tails.
func TestStepBlockAtOddGeometryWithBindings(t *testing.T) {
	g := rng.New(33)
	f := gen.RandomKSAT(g, 5, 11, 3)
	n, m := f.NumVars, f.NumClauses()
	for _, fam := range allFamilies {
		scalar := New(f, noise.NewBank(fam, 78, n, m))
		block := New(f, noise.NewBank(fam, 78, n, m))
		for _, e := range []*Evaluator{scalar, block} {
			e.Bind(1, cnf.True)
			e.Bind(3, cnf.False)
		}
		for _, k := range []int{3, 7, 17} {
			out := make([]float64, k)
			for _, base := range []uint64{1, 6, 255} {
				block.StepBlockAt(base, out)
				scalar.Seek(base)
				for s := 0; s < k; s++ {
					if want := scalar.Step().S; out[s] != want {
						t.Fatalf("family %v k=%d base=%d sample %d: StepBlockAt %v != Step %v",
							fam, k, base, s, out[s], want)
					}
				}
			}
		}
	}
}
