package hyperspace

import (
	"testing"

	"repro/internal/rng"
)

// TestRowKernelsMatchPortable calls the eight portable row loops
// directly and compares them with the vec* entry points StepBlockAt
// uses and with each primitive's scalar formula, on every length 0–67
// and at random offsets into the operand rows. On an AVX2 amd64 host
// the entry points hand the portable loops only the len%4 tails, so
// this is what keeps the whole portable path (the only one on other
// GOARCHes and on CPUs without AVX2) tested there.
func TestRowKernelsMatchPortable(t *testing.T) {
	kernels := []struct {
		name          string
		portable, vec func(dst, a, b, c []float64)
		scalar        func(d, a, b, c float64) float64
	}{
		{"mulTo",
			func(d, a, b, _ []float64) { mulToGo(d, a, b) },
			func(d, a, b, _ []float64) { vecMulTo(d, a, b) },
			func(_, a, b, _ float64) float64 { return a * b }},
		{"mulPair",
			func(d, a, b, _ []float64) { mulPairGo(d, a, b) },
			func(d, a, b, _ []float64) { vecMulPair(d, a, b) },
			func(d, a, b, _ float64) float64 { return d * a * b }},
		{"mul",
			func(d, a, _, _ []float64) { mulGo(d, a) },
			func(d, a, _, _ []float64) { vecMul(d, a) },
			func(d, a, _, _ float64) float64 { return d * a }},
		{"addTo",
			func(d, a, b, _ []float64) { addToGo(d, a, b) },
			func(d, a, b, _ []float64) { vecAddTo(d, a, b) },
			func(_, a, b, _ float64) float64 { return a + b }},
		{"add",
			func(d, a, _, _ []float64) { addGo(d, a) },
			func(d, a, _, _ []float64) { vecAdd(d, a) },
			func(d, a, _, _ float64) float64 { return d + a }},
		{"mulSum",
			func(d, a, b, _ []float64) { mulSumGo(d, a, b) },
			func(d, a, b, _ []float64) { vecMulSum(d, a, b) },
			func(d, a, b, _ float64) float64 { return d * (a + b) }},
		{"addMul",
			func(d, a, b, _ []float64) { addMulGo(d, a, b) },
			func(d, a, b, _ []float64) { vecAddMul(d, a, b) },
			func(d, a, b, _ float64) float64 { return d + a*b }},
		{"addMul2",
			func(d, a, b, c []float64) { addMul2Go(d, a, b, c) },
			func(d, a, b, c []float64) { vecAddMul2(d, a, b, c) },
			func(d, a, b, c float64) float64 { return d + a*b*c }},
	}
	g := rng.New(0x40e5)
	row := func(n int) []float64 {
		// Sit the row at a random offset into its backing array, so the
		// kernels see every 8-byte alignment modulo the vector width.
		off := g.Intn(4)
		r := make([]float64, off+n)
		for i := range r {
			r[i] = g.Uniform(-2, 2)
		}
		return r[off:]
	}
	for n := 0; n <= 67; n++ {
		d0, a, b, c := row(n), row(n), row(n), row(n)
		for _, k := range kernels {
			portable, vec := row(n), row(n)
			copy(portable, d0)
			copy(vec, d0)
			k.portable(portable, a, b, c)
			k.vec(vec, a, b, c)
			for s := range d0 {
				want := k.scalar(d0[s], a[s], b[s], c[s])
				if portable[s] != want || vec[s] != want {
					t.Fatalf("%s n=%d: [%d] portable %v, vec %v, scalar %v",
						k.name, n, s, portable[s], vec[s], want)
				}
			}
		}
	}
}
