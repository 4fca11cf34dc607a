package hyperspace

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/noise"
	"repro/internal/rng"
)

// FuzzStepBlockAtMatchesSampleAt drives the block kernel with a random
// small formula, noise family, binding pattern, stream base and block
// length (k <= 300), and requires every sample to equal the scalar
// oracle SampleAt at the same index bit for bit. The seed corpus is the
// odd-geometry sweep of TestStepBlockAtOddGeometry: block lengths that
// leave every vector-tail residue and bases that are not multiples of
// the vector width.
//
//	go test ./internal/hyperspace -fuzz FuzzStepBlockAtMatchesSampleAt -fuzztime 20s
func FuzzStepBlockAtMatchesSampleAt(f *testing.F) {
	for i, k := range []uint16{1, 3, 7, 17, 255, 300} {
		for j, base := range []uint64{0, 1, 2, 3, 5, 1021, 1 << 40} {
			f.Add(uint64(31+i), uint8(i+j), uint32(i*j*0x9e37), base, k)
		}
	}
	f.Fuzz(func(t *testing.T, formulaSeed uint64, fam uint8, bindBits uint32, base uint64, k uint16) {
		g := rng.New(formulaSeed)
		n := 1 + g.Intn(6)
		m := 1 + g.Intn(8)
		formula := gen.RandomKSAT(g, n, m, 1+g.Intn(n))
		family := allFamilies[int(fam)%len(allFamilies)]

		// Two bits per variable: 1 binds True, 2 binds False, 0 and 3
		// leave the variable free.
		bound := cnf.NewAssignment(n)
		for v := 1; v <= n; v++ {
			switch (bindBits >> (2 * (v - 1))) & 3 {
			case 1:
				bound.Set(cnf.Var(v), cnf.True)
			case 2:
				bound.Set(cnf.Var(v), cnf.False)
			}
		}

		block := New(formula, noise.NewBank(family, formulaSeed, n, m))
		scalar := New(formula, noise.NewBank(family, formulaSeed, n, m))
		block.BindAll(bound)
		scalar.BindAll(bound)

		out := make([]float64, 1+int(k)%300)
		block.StepBlockAt(base, out)
		for s := range out {
			if want := scalar.SampleAt(base + uint64(s)).S; out[s] != want {
				t.Fatalf("%v n=%d m=%d bound=%s k=%d base=%d sample %d: StepBlockAt %v != SampleAt %v",
					family, n, m, bound, len(out), base, s, out[s], want)
			}
		}
	})
}
