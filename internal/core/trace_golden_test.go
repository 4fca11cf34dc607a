package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/noise"
)

// TestMeanTraceGolden pins MeanTrace bit for bit, so the Figure 1
// series (internal/exp) cannot drift when the evaluation path under it
// changes. The trace is fed one Welford.Add per sample in sample order;
// the values were captured from the per-sample scalar loop. maxSamples
// is deliberately not a multiple of the paper geometry's block size
// (256), so the final, truncated block is covered too.
func TestMeanTraceGolden(t *testing.T) {
	e := mustEngine(t, gen.PaperSAT(), Options{Family: noise.UniformUnit, Seed: 2012})
	want := []TracePoint{
		{1000, 12.865023320025239},
		{2000, 0.19606544241230422},
		{3000, 0.5655855554658028},
		{4000, -0.09704873925878185},
		{5000, 0.566662997526779},
		{5003, 0.5665346815938368},
	}
	got := e.MeanTrace(1000, 5003)
	if len(got) != len(want) {
		t.Fatalf("trace has %d points, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
