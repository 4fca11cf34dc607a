package rtw

import (
	"math/big"

	"repro/internal/cnf"
)

// The scalar oracles: the two per-sample kernels the blocked factored
// kernel replaced, kept verbatim in arithmetic. Step evaluates S_N with
// int64 leave-one-out prefix/suffix products; stepWide evaluates the
// same factored form as the production kernel but one bank call per
// sample and a big.Int per sample. Both consume one sample at the
// engine's cursor, so they interleave with nothing else on an engine
// of their own.

// oracleFill draws the sample at the cursor as int64 ±1 planes in the
// scalar [i*m+j] layout (a k=1 block) and advances the cursor.
func (e *Engine) oracleFill() (pos, neg []int64) {
	nm := e.n * e.m
	posF, negF := make([]float64, nm), make([]float64, nm)
	e.bank.FillBlockAt(e.cursor, 1, posF, negF)
	e.cursor++
	pos, neg = make([]int64, nm), make([]int64, nm)
	for k := range posF {
		pos[k] = int64(posF[k])
		neg[k] = int64(negF[k])
	}
	return pos, neg
}

// Step draws one RTW sample vector and returns the exact integer S_N(t).
// It is only valid on non-wide engines; wide geometries go through
// stepWide.
func (e *Engine) Step() int64 {
	if e.wide {
		panic("rtw: Step would overflow int64 on this geometry; use stepWide")
	}
	pos, neg := e.oracleFill()
	n, m := e.n, e.m

	tau := int64(1)
	for i := 0; i < n; i++ {
		pp, pn := int64(1), int64(1)
		row := i * m
		for j := 0; j < m; j++ {
			pp *= pos[row+j]
			pn *= neg[row+j]
		}
		switch e.bound[i+1] {
		case cnf.True:
			tau *= pp
		case cnf.False:
			tau *= pn
		default:
			tau *= pp + pn
		}
	}

	pre, suf := make([]int64, n+1), make([]int64, n+1)
	sigma := int64(1)
	for j := 0; j < m; j++ {
		pre[0] = 1
		for k := 0; k < n; k++ {
			pre[k+1] = pre[k] * (pos[k*m+j] + neg[k*m+j])
		}
		suf[n] = 1
		for k := n - 1; k >= 0; k-- {
			suf[k] = suf[k+1] * (pos[k*m+j] + neg[k*m+j])
		}
		z := int64(0)
		for _, l := range e.f.Clauses[j] {
			k := int(l.Var()) - 1
			lit := pos[k*m+j]
			if l.IsNeg() {
				lit = neg[k*m+j]
			}
			z += lit * pre[k] * suf[k+1]
		}
		sigma *= z
	}
	return tau * sigma
}

// stepWide computes one exact S_N into dst on any geometry.
func (e *Engine) stepWide(dst *big.Int) {
	pos, neg := e.oracleFill()
	n, m := e.n, e.m

	t := int64(1)
	shift := uint(0)
	for i := 0; i < n; i++ {
		pp, pn := int64(1), int64(1)
		row := i * m
		for j := 0; j < m; j++ {
			pp *= pos[row+j]
			pn *= neg[row+j]
		}
		switch e.bound[i+1] {
		case cnf.True:
			t *= pp
		case cnf.False:
			t *= pn
		default:
			s := pp + pn
			if s == 0 {
				dst.SetInt64(0)
				return
			}
			if s < 0 {
				t = -t
			}
			shift++
		}
	}

	var c big.Int
	dst.SetInt64(t)
	for j := 0; j < m; j++ {
		zeros, zi := 0, -1
		sgnAll := int64(1)
		for k := 0; k < n; k++ {
			g := pos[k*m+j] + neg[k*m+j]
			if g == 0 {
				zeros++
				if zeros >= 2 {
					break
				}
				zi = k
			} else if g < 0 {
				sgnAll = -sgnAll
			}
		}
		if zeros >= 2 {
			dst.SetInt64(0)
			return
		}
		cj := int64(0)
		for _, l := range e.f.Clauses[j] {
			k := int(l.Var()) - 1
			lit := pos[k*m+j]
			if l.IsNeg() {
				lit = neg[k*m+j]
			}
			if zeros == 1 {
				if k == zi {
					cj += lit * sgnAll
				}
			} else {
				s := sgnAll
				if pos[k*m+j]+neg[k*m+j] < 0 {
					s = -s
				}
				cj += lit * s
			}
		}
		if cj == 0 {
			dst.SetInt64(0)
			return
		}
		dst.Mul(dst, c.SetInt64(cj))
		shift += uint(n - 1)
	}
	dst.Lsh(dst, shift)
}
