package hyperspace

import "repro/internal/rng"

// amd64: each row primitive runs the assembly kernel over the aligned
// prefix (len &^ 3 lanes, four float64 per iteration) and the portable
// loop over the tail. The kernels use separate VMULPD/VADDPD
// instructions in the scalar kernel's association order — never FMA —
// so every lane is bit-identical to the portable loop; the block and
// row-kernel tests assert exactly that. The CPU gate is shared with the
// rng fill kernels: one CPUID+XGETBV probe decides both, and a CPU
// without AVX2 runs the portable loops throughout.
var evalHaveAVX2 = rng.HasAVX2()

//go:noescape
func evalMulToAVX2(dst, a, b *float64, n int)

//go:noescape
func evalMulPairAVX2(dst, a, b *float64, n int)

//go:noescape
func evalMulAVX2(dst, a *float64, n int)

//go:noescape
func evalAddToAVX2(dst, a, b *float64, n int)

//go:noescape
func evalAddAVX2(dst, a *float64, n int)

//go:noescape
func evalMulSumAVX2(dst, a, b *float64, n int)

//go:noescape
func evalAddMulAVX2(dst, a, b *float64, n int)

//go:noescape
func evalAddMul2AVX2(dst, a, b, c *float64, n int)

func vecMulTo(dst, a, b []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalMulToAVX2(&dst[0], &a[0], &b[0], p)
		n = p
	}
	mulToGo(dst[n:], a[n:], b[n:])
}

func vecMulPair(dst, a, b []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalMulPairAVX2(&dst[0], &a[0], &b[0], p)
		n = p
	}
	mulPairGo(dst[n:], a[n:], b[n:])
}

func vecMul(dst, a []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalMulAVX2(&dst[0], &a[0], p)
		n = p
	}
	mulGo(dst[n:], a[n:])
}

func vecAddTo(dst, a, b []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalAddToAVX2(&dst[0], &a[0], &b[0], p)
		n = p
	}
	addToGo(dst[n:], a[n:], b[n:])
}

func vecAdd(dst, a []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalAddAVX2(&dst[0], &a[0], p)
		n = p
	}
	addGo(dst[n:], a[n:])
}

func vecMulSum(dst, a, b []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalMulSumAVX2(&dst[0], &a[0], &b[0], p)
		n = p
	}
	mulSumGo(dst[n:], a[n:], b[n:])
}

func vecAddMul(dst, a, b []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalAddMulAVX2(&dst[0], &a[0], &b[0], p)
		n = p
	}
	addMulGo(dst[n:], a[n:], b[n:])
}

func vecAddMul2(dst, a, b, c []float64) {
	n := 0
	if p := len(dst) &^ 3; evalHaveAVX2 && p > 0 {
		evalAddMul2AVX2(&dst[0], &a[0], &b[0], &c[0], p)
		n = p
	}
	addMul2Go(dst[n:], a[n:], b[n:], c[n:])
}

// evalAccelName reports the active StepBlockAt row-kernel backend.
func evalAccelName() string {
	if evalHaveAVX2 {
		return "avx2"
	}
	return "none"
}
