package rng

import (
	"runtime"
	"sync"
	"testing"
)

// Golden v2 stream words, pinned. Word(StreamBase(seed, src), idx) is
// the addressing contract every v2 consumer (noise bank, sampler
// work-stealing, AVX2 kernel) stands on — any drift here silently
// changes every sampled verdict, so a change must show up as a
// deliberate, reviewed golden update (and a stream-contract version
// bump), never as an accident.
func TestGoldenV2StreamWords(t *testing.T) {
	cases := []struct {
		seed, src, idx uint64
		word           uint64
		uniform        float64
	}{
		{0x0, 0x0, 0x0, 0x96c615677f8f4bf4, 0.5889600160294864},
		{0x0, 0x0, 0x1, 0xde841bafc864abf4, 0.8692033104092781},
		{0x0, 0x1, 0x0, 0xcccff6b446268c1e, 0.8000482740518696},
		{0x1, 0x7, 0x3, 0xddfa7c33f6b9977c, 0.8671033503403349},
		{0x1, 0xf, 0x100000, 0xe13a3d29de38272e, 0.8797949053971199},
		{0x2a, 0x3, 0xf423f, 0xf2408300f76241b5, 0.9462968709334598},
		{0xdeadbeef, 0xff, 0x1, 0x49d7c0f4d0e7b7a4, 0.28844839074090944},
		// Counter past 2^63: addressing must survive the full index range.
		{0x1, 0x0, 0x800000000000000b, 0x5be9eecc31ff3146, 0.3590382812999422},
		{0xffffffffffffffff, 0xffffffffffffffff, 0xffffffffffffffff,
			0x46ec57da8de3eb67, 0.2770438107089742},
	}
	for _, tc := range cases {
		base := StreamBase(tc.seed, tc.src)
		if got := Word(base, tc.idx); got != tc.word {
			t.Errorf("Word(StreamBase(%#x, %#x), %#x) = %#016x, want %#016x\n"+
				"(a deliberate generator change must update this golden AND bump "+
				"the stream contract version)", tc.seed, tc.src, tc.idx, got, tc.word)
		}
		if got := Uniform01(base, tc.idx); got != tc.uniform {
			t.Errorf("Uniform01(StreamBase(%#x, %#x), %#x) = %v, want %v",
				tc.seed, tc.src, tc.idx, got, tc.uniform)
		}
	}
}

// The v2 counter stream is defined as "what a SplitMix64 seeded with
// base emits sequentially", evaluated by index. Pin that equivalence.
func TestWordMatchesSequentialSplitMix(t *testing.T) {
	for _, base := range []uint64{0, 1, 0x9e3779b97f4a7c15, Mix(7, 3)} {
		sm := NewSplitMix64(base)
		for i := uint64(0); i < 100; i++ {
			want := sm.Uint64()
			if got := Word(base, i); got != want {
				t.Fatalf("base %#x: Word(%d) = %#x, sequential SplitMix64 gives %#x",
					base, i, got, want)
			}
		}
	}
}

// FillUniformAt must be bit-identical to the per-index scalar formula
// on arbitrary (length, start, lo, span) — this is the conformance
// oracle for the AVX2 kernel: under `-tags nblavx2` the bulk path runs
// the assembly for the aligned prefix, and every lane must match the
// portable expression exactly. Randomized geometries cover prefix/tail
// splits at every alignment.
func TestFillUniformAtMatchesScalar(t *testing.T) {
	if name := FillAccelName(); name != "none" {
		t.Logf("accelerated fill active: %s", name)
	}
	g := New(0xfeedface)
	for trial := 0; trial < 200; trial++ {
		n := g.Intn(97) + 1
		base := g.Uint64()
		start := g.Uint64() >> uint(g.Intn(64))
		lo := g.Uniform(-2, 2)
		span := g.Uniform(0, 3)
		dst := make([]float64, n)
		FillUniformAt(base, start, dst, lo, span)
		for s := range dst {
			want := lo + span*(float64(Word(base, start+uint64(s))>>11)*0x1p-53)
			if dst[s] != want {
				t.Fatalf("trial %d (n=%d start=%d): dst[%d] = %v, want %v",
					trial, n, start, s, dst[s], want)
			}
		}
	}
}

// Large fills must agree with the same fill split at arbitrary points:
// the prefix may take the accelerated path while a resumed suffix
// starts mid-stream. This is the property the block evaluator's
// cursor and the sampler's range claiming depend on.
func TestFillUniformAtSplitInvariance(t *testing.T) {
	const n = 1024
	base := StreamBase(3, 5)
	whole := make([]float64, n)
	FillUniformAt(base, 0, whole, -1, 2)
	split := make([]float64, n)
	g := New(9)
	at := 0
	for at < n {
		k := g.Intn(n-at) + 1
		FillUniformAt(base, uint64(at), split[at:at+k], -1, 2)
		at += k
	}
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("sample %d: whole fill %v, split fill %v", i, whole[i], split[i])
		}
	}
}

// Disjoint index ranges of one stream may be filled concurrently; run
// under -race this also proves the assembly kernel writes only its own
// range. The merged result must equal a single sequential fill.
func TestFillUniformAtConcurrentDisjoint(t *testing.T) {
	const n = 4096
	base := StreamBase(11, 2)
	want := make([]float64, n)
	FillUniformAt(base, 0, want, 0, 1)

	got := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			FillUniformAt(base, uint64(lo), got[lo:hi], 0, 1)
		}(lo, hi)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: concurrent %v, sequential %v", i, got[i], want[i])
		}
	}
}

func BenchmarkFillUniformAt(b *testing.B) {
	dst := make([]float64, 4096)
	base := StreamBase(1, 1)
	b.SetBytes(int64(len(dst) * 8))
	for i := 0; i < b.N; i++ {
		FillUniformAt(base, uint64(i)*uint64(len(dst)), dst, -1, 2)
	}
}

// FillRTWAt must be bit-identical to the per-index scalar formula
// sign(Word & 1): +1 for odd words, -1 for even. The AVX2 kernel builds
// the sign by XORing the parity bit into -1.0's sign bit, so a lane
// mismatch here means the bit trick — not just rounding — is wrong.
func TestFillRTWAtMatchesScalar(t *testing.T) {
	g := New(0xcafef00d)
	for trial := 0; trial < 200; trial++ {
		n := g.Intn(97) + 1
		base := g.Uint64()
		start := g.Uint64() >> uint(g.Intn(64))
		dst := make([]float64, n)
		FillRTWAt(base, start, dst)
		for s := range dst {
			want := -1.0
			if Word(base, start+uint64(s))&1 == 1 {
				want = 1.0
			}
			if dst[s] != want {
				t.Fatalf("trial %d (n=%d start=%d): dst[%d] = %v, want %v",
					trial, n, start, s, dst[s], want)
			}
		}
	}
}

// FillPulseAt must be bit-identical to the per-index scalar formula:
// zero when Uniform01 >= density, else ±amp by the word's parity bit.
// The ordering of the two draws from one word (u from the high 53 bits,
// sign from bit 0) is part of the stream contract — both the Go loop
// and the AVX2 compare+blend kernel read the same word once.
func TestFillPulseAtMatchesScalar(t *testing.T) {
	g := New(0xbeefcafe)
	for trial := 0; trial < 200; trial++ {
		n := g.Intn(97) + 1
		base := g.Uint64()
		start := g.Uint64() >> uint(g.Intn(64))
		density := g.Uniform(0, 1)
		amp := g.Uniform(0.5, 3)
		dst := make([]float64, n)
		FillPulseAt(base, start, dst, density, amp)
		for s := range dst {
			w := Word(base, start+uint64(s))
			var want float64
			switch {
			case float64(w>>11)*0x1p-53 >= density:
				want = 0
			case w&1 == 1:
				want = amp
			default:
				want = -amp
			}
			if dst[s] != want {
				t.Fatalf("trial %d (n=%d start=%d density=%v amp=%v): dst[%d] = %v, want %v",
					trial, n, start, density, amp, s, dst[s], want)
			}
		}
	}
}

// Golden vectors for the RTW and pulse fills, pinned for the same reason
// as TestGoldenV2StreamWords: these are derived streams the verdict
// store replays across versions, so drift must be deliberate.
func TestGoldenRTWPulseFills(t *testing.T) {
	base := StreamBase(0x2a, 3)
	rtw := make([]float64, 8)
	FillRTWAt(base, 5, rtw)
	wantRTW := []float64{-1, 1, -1, -1, -1, 1, 1, 1}
	for i := range rtw {
		if rtw[i] != wantRTW[i] {
			t.Errorf("RTW golden [%d] = %v, want %v", i, rtw[i], wantRTW[i])
		}
	}
	pulse := make([]float64, 8)
	FillPulseAt(base, 5, pulse, 0.25, 2)
	wantPulse := []float64{-2, 0, 0, 0, 0, 0, 0, 2}
	for i := range pulse {
		if pulse[i] != wantPulse[i] {
			t.Errorf("pulse golden [%d] = %v, want %v", i, pulse[i], wantPulse[i])
		}
	}
}

// Pulse outputs at density boundaries: density 0 must be identically
// zero (u >= 0 always), density 1 never zero except the measure-zero
// u == 1 case, which the 53-bit grid cannot produce.
func TestFillPulseAtDensityEdges(t *testing.T) {
	base := StreamBase(7, 7)
	dst := make([]float64, 256)
	FillPulseAt(base, 0, dst, 0, 1.5)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("density 0: dst[%d] = %v, want 0", i, v)
		}
	}
	FillPulseAt(base, 0, dst, 1, 1.5)
	for i, v := range dst {
		if v != 1.5 && v != -1.5 {
			t.Fatalf("density 1: dst[%d] = %v, want ±1.5", i, v)
		}
	}
}

func BenchmarkFillRTWAt(b *testing.B) {
	dst := make([]float64, 4096)
	base := StreamBase(1, 2)
	b.SetBytes(int64(len(dst) * 8))
	for i := 0; i < b.N; i++ {
		FillRTWAt(base, uint64(i)*uint64(len(dst)), dst)
	}
}

func BenchmarkFillPulseAt(b *testing.B) {
	dst := make([]float64, 4096)
	base := StreamBase(1, 3)
	b.SetBytes(int64(len(dst) * 8))
	for i := 0; i < b.N; i++ {
		FillPulseAt(base, uint64(i)*uint64(len(dst)), dst, 0.25, 2)
	}
}
