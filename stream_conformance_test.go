// Conformance suite for the noise stream contract: the sampling
// engines' results must be invariant to the worker count (workers
// claim disjoint sample-index chunks of the same counter-addressed
// streams).
package repro

import (
	"context"
	"testing"
)

// TestWorkerCountNeverChangesResults pins the headline v2 guarantee at
// the registry level: for every sampling engine, workers=1 and
// workers=8 produce bit-identical verdicts and statistics. rtw and sbl
// sample single-threaded (the knob is a no-op there), so the contract
// holds trivially — asserting it anyway keeps them honest if they ever
// grow a parallel path.
func TestWorkerCountNeverChangesResults(t *testing.T) {
	for _, engine := range []string{"mc", "rtw", "sbl"} {
		t.Run(engine, func(t *testing.T) {
			for label, f := range conformanceInstances(t) {
				var ref Result
				for i, workers := range []int{1, 3, 8} {
					s, err := New(engine,
						WithSeed(1), WithMaxSamples(1_000_000), WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					r, err := s.Solve(context.Background(), f)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", label, workers, err)
					}
					r.Wall = 0 // wall clock is the one legitimately varying field
					if i == 0 {
						ref = r
						continue
					}
					if r.Status != ref.Status || r.Stats != ref.Stats {
						t.Errorf("%s: result changed with workers=%d:\n got %+v\nwant %+v",
							label, workers, r, ref)
					}
				}
			}
		})
	}
}
