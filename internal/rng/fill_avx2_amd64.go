package rng

// On amd64 the bulk fills run the AVX2 kernels whenever the CPU and OS
// support AVX2 state; the runtime gate below is the only selector. The
// portable loop remains the fallback (and the whole path on other
// GOARCHes) and the conformance oracle.
var haveAVX2 = cpuHasAVX2()

// fillUniformAccel fills the largest multiple-of-4 prefix of dst with
// the AVX2 kernel and reports how many samples it wrote; FillUniformAt
// finishes the tail with the portable loop. Splitting is sound because
// stream samples are pure functions of (base, index) — the two kernels are
// pinned bit-identical, so any prefix/suffix mix yields the same bits.
func fillUniformAccel(base, start uint64, dst []float64, lo, span float64) int {
	n := len(dst) &^ 3
	if !haveAVX2 || n == 0 {
		return 0
	}
	fillUniformAVX2(base+(start+1)*golden, &dst[0], n, lo, span)
	return n
}

// fillRTWAccel and fillPulseAccel are the same prefix/tail split for
// the RTW and pulse families. Both kernels share the uniform fill's
// SplitMix64 counter lanes; only the final map from word to value
// differs (a sign-bit XOR for RTW, a compare+mask+sign for pulse).
func fillRTWAccel(base, start uint64, dst []float64) int {
	n := len(dst) &^ 3
	if !haveAVX2 || n == 0 {
		return 0
	}
	fillRTWAVX2(base+(start+1)*golden, &dst[0], n)
	return n
}

func fillPulseAccel(base, start uint64, dst []float64, density, amp float64) int {
	n := len(dst) &^ 3
	if !haveAVX2 || n == 0 {
		return 0
	}
	fillPulseAVX2(base+(start+1)*golden, &dst[0], n, density, amp)
	return n
}

func fillAccelName() string {
	if haveAVX2 {
		return "avx2"
	}
	return "none"
}

func hasAVX2() bool { return haveAVX2 }

// fillUniformAVX2 writes dst[s] = lo + span·(float64(mix64(state+s·golden)>>11)·2^-53)
// for s in [0, n). n must be a positive multiple of 4. Implemented in
// fill_avx2_amd64.s; bit-identical to fillUniformGo by construction
// (same integer mix, exact u64→f64 conversion, same rounding order:
// one multiply by 2^-53, one multiply by span, one add of lo).
//
//go:noescape
func fillUniformAVX2(state uint64, dst *float64, n int, lo, span float64)

// fillRTWAVX2 writes dst[s] = ±1 by the parity of mix64(state+s·golden)
// for s in [0, n). n must be a positive multiple of 4. The parity bit is
// shifted into the sign position and XORed onto -1.0, so no FP
// operation (and hence no rounding) is involved at all.
//
//go:noescape
func fillRTWAVX2(state uint64, dst *float64, n int)

// fillPulseAVX2 writes the pulse map of mix64(state+s·golden) for s in
// [0, n): 0 where the top-53-bit uniform is >= density (VCMPPD mask,
// ANDN to +0.0), ±amp by the parity bit otherwise (sign-bit XOR). n
// must be a positive multiple of 4. The uniform is the same exact
// u64→f64 + 2^-53 scaling as the uniform kernel; compare and blend are
// exact, so the output is bit-identical to fillPulseGo.
//
//go:noescape
func fillPulseAVX2(state uint64, dst *float64, n int, density, amp float64)

// cpuHasAVX2 reports CPUID leaf-7 AVX2 with OSXSAVE/XCR0 YMM-state
// checks, i.e. whether the kernel may legally execute here.
func cpuHasAVX2() bool
