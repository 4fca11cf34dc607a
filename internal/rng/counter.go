package rng

import "math"

// The noise stream contract (v2): counter-based stateless generation.
//
// Every noise sample is a pure function of its coordinates:
//
//	Word(StreamBase(seed, src), i)
//
// is sample i of source src under seed, computed directly — no state,
// no ordering requirement. The generator is SplitMix64 evaluated by
// counter: a SplitMix64 seeded with base emits mix64(base + golden),
// mix64(base + 2·golden), ... on successive calls, so
// Word(base, i) = mix64(base + (i+1)·golden) reproduces exactly the
// (i+1)-th output of NewSplitMix64(base) while being addressable at any
// index. SplitMix64 passes BigCrush and its outputs for distinct
// counters are exactly the generator's own outputs, so statistical
// quality matches the sequential use of the same generator.
//
// Because every sample is independent, bulk fills are embarrassingly
// data-parallel: FillUniformAt below is the scalar contract, with an
// AVX2 kernel (amd64, taken when the CPU supports it) that is pinned
// bit-identical to the pure-Go loop — the Go path is the conformance
// oracle, not the other way around.

// StreamBase derives the stream base for source src under seed.
// It is Mix(seed, src): injective in src for a fixed seed, so distinct
// sources can never share a base.
func StreamBase(seed, src uint64) uint64 {
	return Mix(seed, src)
}

// Word returns sample i of the word stream with the given base:
// the output a SplitMix64 seeded with base would produce on its
// (i+1)-th call, computed directly from the coordinates.
func Word(base, i uint64) uint64 {
	return mix64(base + (i+1)*golden)
}

// Uniform01 maps sample i of the stream to [0, 1) with 53 bits of
// precision, using the same high-bits scaling as Xoshiro256.Float64.
func Uniform01(base, i uint64) float64 {
	return float64(Word(base, i)>>11) * 0x1p-53
}

// FillUniformAt writes dst[s] = lo + span·U(base, start+s) for
// s in [0, len(dst)), where U is Uniform01. Sample values depend only
// on (base, index): disjoint index ranges may be filled concurrently,
// in any order, by any mix of the accelerated and pure-Go paths — the
// results are bit-identical.
func FillUniformAt(base, start uint64, dst []float64, lo, span float64) {
	done := fillUniformAccel(base, start, dst, lo, span)
	if done < len(dst) {
		fillUniformGo(base, start+uint64(done), dst[done:], lo, span)
	}
}

// fillUniformGo is the portable fill and the conformance oracle for the
// assembly kernel. The loop carries only the trivially predictable
// state += golden recurrence; the mix chains of successive iterations
// are independent, so the CPU pipelines them without a serial
// generator-state dependency.
func fillUniformGo(base, start uint64, dst []float64, lo, span float64) {
	state := base + (start+1)*golden
	for s := range dst {
		z := state
		state += golden
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		dst[s] = lo + span*(float64(z>>11)*0x1p-53)
	}
}

// FillRTWAt writes dst[s] = ±1 by the parity of Word(base, start+s) for
// s in [0, len(dst)) — the bulk form of the random-telegraph-wave
// sample (noise.RTW). The same seekability contract as FillUniformAt
// applies: values depend only on (base, index), so any split between
// the accelerated and portable paths is bit-identical. It is in fact
// exact in a stronger sense than the uniform fill: ±1 is a pure
// sign-bit map of an integer parity, so no floating-point rounding
// occurs at all.
func FillRTWAt(base, start uint64, dst []float64) {
	done := fillRTWAccel(base, start, dst)
	if done < len(dst) {
		fillRTWGo(base, start+uint64(done), dst[done:])
	}
}

// fillRTWGo is the portable RTW fill and the conformance oracle for the
// assembly kernel: the parity bit of the mixed word selects ±1. It is
// XORed into the sign bit of -1.0, as the assembly kernel does, rather
// than branched on: the parity is a coin flip no branch predictor can
// learn.
func fillRTWGo(base, start uint64, dst []float64) {
	state := base + (start+1)*golden
	for s := range dst {
		z := state
		state += golden
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		dst[s] = math.Float64frombits(0xBFF0000000000000 ^ (z&1)<<63)
	}
}

// FillPulseAt writes the pulse-train samples for indices
// start..start+len(dst)-1 of the stream with the given base: sample s is
// 0 when the word's top-53-bit uniform is >= density, otherwise ±amp by
// the word's parity bit (noise.Pulse semantics, parameterized so rng
// stays family-agnostic). Same seekability and bit-identity contract as
// FillUniformAt; the comparison and the sign selection are exact, and
// the only floating-point operation is the exact u64→f64 of the
// 53-bit word — so the accelerated path has no rounding to match, only
// semantics.
func FillPulseAt(base, start uint64, dst []float64, density, amp float64) {
	done := fillPulseAccel(base, start, dst, density, amp)
	if done < len(dst) {
		fillPulseGo(base, start+uint64(done), dst[done:], density, amp)
	}
}

// fillPulseGo is the portable pulse fill and the conformance oracle for
// the assembly kernel.
func fillPulseGo(base, start uint64, dst []float64, density, amp float64) {
	state := base + (start+1)*golden
	for s := range dst {
		z := state
		state += golden
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		switch {
		case float64(z>>11)*0x1p-53 >= density:
			dst[s] = 0
		case z&1 == 1:
			dst[s] = amp
		default:
			dst[s] = -amp
		}
	}
}

// FillAccelName reports which accelerated fill kernel the bulk fills
// (FillUniformAt, FillRTWAt, FillPulseAt) dispatch to: "avx2" on amd64
// when the CPU supports it, "none" otherwise.
// Bench archives record it so numbers are attributable to the kernel
// that produced them.
func FillAccelName() string {
	return fillAccelName()
}

// HasAVX2 reports whether the AVX2 kernels are compiled in (amd64) and
// the CPU/OS support executing them. Other packages with their own
// AVX2 assembly (the hyperspace evaluator) share this one CPUID+XGETBV
// gate instead of duplicating it.
func HasAVX2() bool {
	return hasAVX2()
}
