package core

import "testing"

// TestCheckSeedV2WorkerFree pins the contract: the seed depends only
// on (engine seed, check sequence) — every worker draws from the same
// counter-addressed streams (workers partition the sample-index axis
// instead), which is what makes verdicts worker-count invariant.
// Distinct checks must still get distinct seeds.
func TestCheckSeedV2WorkerFree(t *testing.T) {
	seen := make(map[uint64]uint64, 512)
	for seq := uint64(0); seq < 512; seq++ {
		k := checkSeed(42, seq)
		if prev, dup := seen[k]; dup {
			t.Fatalf("v2 seed collision: seq %d vs %d", seq, prev)
		}
		seen[k] = seq
	}
}
