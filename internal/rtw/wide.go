package rtw

import "math/big"

// The factored kernel and the wide accumulator. With ±1 sources almost
// nothing in S_N is actually big. Every per-clause disjunction factors
// as
//
//	Z_j = c_j · 2^(n-1),  c_j = Σ_l lit_l · sgn(prod_{k≠v(l)} g_k),
//
// where g_k = N^j_{x_k} + N^j_{!x_k} ∈ {-2, 0, 2}: each leave-one-out
// product over n-1 factors of magnitude 2 is ±2^(n-1) or vanishes. The
// same holds for tau_N — bound variables contribute ±1, free variables
// ±2 or 0 — so the whole sample assembles as
//
//	S_N = t · (prod_j c_j) · 2^(u + m·(n-1))
//
// with t ∈ {±1}, u = number of free variables, and every c_j a
// clause-width-bounded int64. A sample is exactly zero as soon as any
// free variable's branch sum or any c_j vanishes; for large n·m that is
// almost every sample (a clause survives only when at most one of its n
// variable factors is zero, probability ≈ (n+1)/2^n), so the block
// kernel (Engine.factor) exits early and its cost is dominated by
// drawing the 2·n·m source samples.
//
// Narrow geometries assemble t·prod_j c_j << shift in int64. Wide ones
// (uf20-91 needs ~1900 bits) assemble the rare nonzero sample in
// big.Int and add it to exact Σ S and Σ S² accumulators; the decision
// statistic is computed from those moments in big.Float (mean,
// standard error, and the theta comparison), so the verdict never
// suffers float64 overflow even though the reported Result folds the
// mean down to a float64 at the end.

// wideScratch holds the wide accumulator's per-engine state.
type wideScratch struct {
	s, sq, c  big.Int // current sample, its square, small-int multiplier
	sum, sum2 big.Int // exact Σ S and Σ S²
}

// addWide assembles the nonzero sample t · prod_j e.c[j] · 2^shift and
// adds it to the exact moments.
func (e *Engine) addWide(t int64, shift uint) {
	w := &e.wsc
	w.s.SetInt64(t)
	for _, c := range e.c {
		w.s.Mul(&w.s, w.c.SetInt64(c))
	}
	w.s.Lsh(&w.s, shift)
	w.sum.Add(&w.sum, &w.s)
	w.sq.Mul(&w.s, &w.s)
	w.sum2.Add(&w.sum2, &w.sq)
}

// wideResult turns the exact moments into the decision and a Result.
// All comparisons happen in big.Float so the verdict is immune to
// float64 overflow; only the reported Mean/StdErr are folded down.
func (e *Engine) wideResult(sum, sum2 *big.Int, count int64, theta float64) Result {
	if count == 0 {
		return Result{}
	}
	const prec = 128
	nF := new(big.Float).SetPrec(prec).SetInt64(count)
	mean := new(big.Float).SetPrec(prec).SetInt(sum)
	mean.Quo(mean, nF)

	se := new(big.Float).SetPrec(prec) // stays 0 when count == 1 or variance <= 0
	if count > 1 {
		// var = (Σx² - (Σx)²/n) / (n-1); se = sqrt(var/n).
		sq := new(big.Float).SetPrec(prec).SetInt(sum)
		sq.Mul(sq, sq)
		sq.Quo(sq, nF)
		v := new(big.Float).SetPrec(prec).SetInt(sum2)
		v.Sub(v, sq)
		if v.Sign() > 0 {
			v.Quo(v, new(big.Float).SetPrec(prec).SetInt64(count-1))
			v.Quo(v, nF)
			se.Sqrt(v)
		}
	}

	sat := false
	if se.Sign() > 0 {
		bound := new(big.Float).SetPrec(prec).SetFloat64(theta)
		bound.Mul(bound, se)
		sat = mean.Cmp(bound) > 0
	} else if mean.Sign() > 0 {
		// Zero variance with a positive mean: every sample agreed.
		sat = true
	}
	mf, _ := mean.Float64()
	sf, _ := se.Float64()
	return Result{Satisfiable: sat, Mean: mf, StdErr: sf, Samples: count}
}
