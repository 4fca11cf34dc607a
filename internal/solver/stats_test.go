package solver

import "testing"

// TestStatsAddAdoptsAccel pins the merge semantics meta-engines rely
// on: FillAccel and EvalAccel are identities, not counters, so Add
// adopts a component's kernel names when unset and never overwrites
// its own, while the effort counters sum.
func TestStatsAddAdoptsAccel(t *testing.T) {
	var s Stats
	s.Add(Stats{Samples: 10, FillAccel: "avx2", EvalAccel: "avx2"})
	if s.FillAccel != "avx2" || s.EvalAccel != "avx2" {
		t.Errorf("merged accel = %q/%q, want avx2/avx2 (adopted)", s.FillAccel, s.EvalAccel)
	}
	s.Add(Stats{Samples: 5, FillAccel: "none", EvalAccel: "none"})
	if s.FillAccel != "avx2" || s.EvalAccel != "avx2" {
		t.Errorf("merged accel = %q/%q, want avx2/avx2 (kept)", s.FillAccel, s.EvalAccel)
	}
	if s.Samples != 15 {
		t.Errorf("merged Samples = %d, want 15", s.Samples)
	}
}
