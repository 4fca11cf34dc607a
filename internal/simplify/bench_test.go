package simplify

import (
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// BenchmarkSimplify runs the default passes over eight fixed uf20-91
// or uf50-218 instances, half random and half planted, one instance
// per op in turn.
func BenchmarkSimplify(b *testing.B) {
	for _, size := range []struct{ n, m int }{{20, 91}, {50, 218}} {
		b.Run(fmt.Sprintf("uf%d-%d", size.n, size.m), func(b *testing.B) {
			g := rng.New(5)
			var fs []*cnf.Formula
			for range 4 {
				p, _ := gen.PlantedKSAT(g, size.n, size.m, 3)
				fs = append(fs, gen.RandomKSAT(g, size.n, size.m, 3), p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Simplify(fs[i%len(fs)], Options{})
			}
		})
	}
}
