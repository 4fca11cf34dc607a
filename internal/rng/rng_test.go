package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the canonical C implementation
	// (Vigna). Guards against silent drift in the mixer.
	sm := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := sm.Uint64(); got != w {
			t.Errorf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent seeds produced %d identical outputs in 1000 draws", same)
	}
}

func TestStreamIndependenceByKey(t *testing.T) {
	// Streams with distinct keys from one seed must be decorrelated:
	// empirical correlation of 1e5 uniforms should be near zero.
	const n = 100000
	a := StreamBase(7, 0)
	b := StreamBase(7, 1)
	var sum float64
	for i := uint64(0); i < n; i++ {
		sum += (Uniform01(a, i) - 0.5) * (Uniform01(b, i) - 0.5)
	}
	corr := sum / n * 12 // normalize by var(U[0,1)) = 1/12
	if math.Abs(corr) > 0.02 {
		t.Errorf("cross-stream correlation = %v, want ~0", corr)
	}
}

func TestStreamSameKeySameStream(t *testing.T) {
	a := StreamBase(7, 99)
	b := StreamBase(7, 99)
	for i := uint64(0); i < 100; i++ {
		if Word(a, i) != Word(b, i) {
			t.Fatal("same (seed,key) must yield identical streams")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(3)
	for i := 0; i < 100000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	g := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Uniform(-0.5, 0.5)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.005 {
		t.Errorf("mean of U[-0.5,0.5) = %v, want ~0", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestNormMoments(t *testing.T) {
	g := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	g := New(17)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := g.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	g := New(19)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[g.Intn(buckets)]++
	}
	expect := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d deviates from %v", b, c, expect)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(23)
	cfg := &quick.Config{MaxCount: 50}
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := g.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	g := New(29)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("shuffle changed element multiset: sum %d != %d", got, sum)
	}
}

func TestMul128KnownProducts(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%#x,%#x) = (%#x,%#x), want (%#x,%#x)",
				c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	g := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= g.Uint64()
	}
	_ = sink
}

func BenchmarkXoshiroFloat64(b *testing.B) {
	g := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += g.Float64()
	}
	_ = sink
}
