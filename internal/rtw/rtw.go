// Package rtw implements the Random-Telegraph-Wave variant of NBL-SAT
// (Section V, reference [17] "instantaneous noise-based logic"): every
// basis source takes values ±1, so every hyperspace quantity is an
// integer and the engine evaluates S_N exactly: one block kernel draws
// a block of samples per bank call and evaluates each sample in the
// factored form S_N = t·prod_j c_j·2^shift (wide.go derives it),
// exiting at the first vanishing factor. Samples are accumulated as
// int64 where the worst-case |S_N| fits and as exact big.Int moments
// where it does not.
//
// RTW carriers have the best decision statistics of all families — the
// fourth moment E[X^4] = E[X^2]^2 = 1 minimizes self-correlation
// variance (see noise.Family.Kurtosis) — and they sidestep the float64
// underflow of the paper's U[-0.5,0.5] sources entirely, since products
// never shrink. The E6 ablation quantifies both effects.
package rtw

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cnf"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/stats"
)

// Engine is an integer-exact RTW NBL-SAT engine for one formula.
type Engine struct {
	f    *cnf.Formula
	bank *noise.Bank
	seed uint64
	n, m int

	// cursor is the engine's position on the bank's sample-index axis
	// (the bank is stateless, so the consumer owns the position). Reset
	// rewinds it to zero.
	cursor uint64

	// wide selects the exact big.Int accumulator: the instance's
	// worst-case |S_N| exceeds int64 (see New and wide.go).
	wide bool

	bound cnf.Assignment

	// block is the CheckCtx batch size, chosen cache-aware from the
	// instance geometry at construction (tests override it to prove
	// verdict invariance).
	block int

	blk rtwBlock // block scratch, sized lazily to the largest block
	c   []int64  // per-clause factors c_j of the sample being assembled

	wsc wideScratch // exact moment accumulators of the wide path
}

// rtwBlock is the block kernel's working set: one bank fill of k
// samples per source in source-major layout ([(i*m+j)*k+s]), and the
// float view of the block's samples for the Welford path.
type rtwBlock struct {
	k          int
	posF, negF []float64
	out        []float64
}

// New builds an RTW engine.
// Instances whose worst-case |S_N| bound (2^n · prod_j(k_j · 2^(n-1)))
// fits in an int64 accumulate samples as int64 into a float Welford
// accumulator; anything larger — uf20-91 needs ~1900 bits — keeps exact
// big.Int moments instead (see wide.go). Both run the same factored
// block kernel, which only touches big.Int to assemble a nonzero wide
// sample.
func New(f *cnf.Formula, seed uint64) (*Engine, error) {
	n, m := f.NumVars, f.NumClauses()
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("rtw: need n >= 1 and m >= 1, got (%d,%d)", n, m)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	bitsNeeded, err := widthBits(f)
	if err != nil {
		return nil, err
	}
	return &Engine{
		f: f, bank: noise.NewBank(noise.RTW, seed, n, m), seed: seed, n: n, m: m,
		wide:  bitsNeeded > 62,
		bound: cnf.NewAssignment(n),
		block: hyperspace.BlockSize(n, m),
		c:     make([]int64, m),
	}, nil
}

// Reset re-targets the engine at a new formula, restoring fresh-engine
// state: the bank is reseeded to its construction streams, bindings are
// cleared, and the wide/int64 accumulator choice is recomputed from the new
// clause widths (the overflow bound depends on clause sizes, not just
// (n, m)). A Reset engine is result-identical to New(f, seed) — the
// warm-path contract the engine lease pool relies on. When the (n, m)
// geometry matches, the 2·n·m-source bank and every scratch buffer
// are kept; otherwise the engine is rebuilt in place.
func (e *Engine) Reset(f *cnf.Formula) error {
	n, m := f.NumVars, f.NumClauses()
	if n != e.n || m != e.m {
		fresh, err := New(f, e.seed)
		if err != nil {
			return err
		}
		*e = *fresh
		return nil
	}
	if err := f.Validate(); err != nil {
		return err
	}
	bitsNeeded, err := widthBits(f)
	if err != nil {
		return err
	}
	e.f = f
	e.wide = bitsNeeded > 62
	for v := range e.bound {
		e.bound[v] = cnf.Unassigned
	}
	// The moment accumulators (wsc) and block scratch need no clearing:
	// every check zeroes or overwrites them before reading.
	e.bank.Reseed(e.seed)
	e.cursor = 0
	return nil
}

// widthBits returns the worst-case |S_N| bit bound for f: the tau
// bound 2^n plus |Z_j| <= k_j·2^(n-1) per clause. It rejects empty
// clauses (the kernel assumes none). New and Reset share it, so a warm
// re-target always picks the same int64/wide accumulator a cold
// construction would.
func widthBits(f *cnf.Formula) (int, error) {
	n := f.NumVars
	bitsNeeded := n
	for _, c := range f.Clauses {
		if len(c) == 0 {
			return 0, fmt.Errorf("rtw: empty clause")
		}
		bitsNeeded += bits.Len(uint(len(c))) + n - 1
	}
	return bitsNeeded, nil
}

// Wide reports whether the engine accumulates exact big.Int moments
// (the int64 worst-case bound does not fit) instead of int64 samples.
func (e *Engine) Wide() bool { return e.wide }

// Bind constrains a variable in tau_N, as in Algorithm 2.
func (e *Engine) Bind(v cnf.Var, val cnf.Value) { e.bound[v] = val }

// BindAll replaces all bindings.
func (e *Engine) BindAll(a cnf.Assignment) {
	for v := 1; v <= e.n; v++ {
		e.bound[v] = a.Get(cnf.Var(v))
	}
}

// fillBlock draws the next k samples of every source into the block
// scratch with one bank call and advances the cursor.
func (e *Engine) fillBlock(k int) *rtwBlock {
	b := &e.blk
	nmk := e.n * e.m * k
	if k > b.k {
		b.k = k
		b.posF = make([]float64, nmk)
		b.negF = make([]float64, nmk)
		b.out = make([]float64, k)
	}
	e.bank.FillBlockAt(e.cursor, k, b.posF[:nmk], b.negF[:nmk])
	e.cursor += uint64(k)
	return b
}

// signBit is 1 for the -1.0 and 0 for the +1.0 an RTW source takes.
func signBit(x float64) uint64 { return math.Float64bits(x) >> 63 }

// factor evaluates sample s of a block filled at size k in the
// factored form S_N = t · prod_j c_j · 2^shift (see wide.go). It
// returns ok=false as soon as a factor vanishes, which is the common
// case; otherwise it returns t ∈ {±1} and leaves the c_j in e.c.
// Clauses go first because a clause costs about 2n loads and vanishes
// with probability 1-(n+1)/2^n, while a free variable's branch sum
// costs 2m loads and vanishes with probability 1/2.
func (e *Engine) factor(b *rtwBlock, k, s int) (t int64, ok bool) {
	n, m := e.n, e.m
	pos, neg := b.posF, b.negF
	stride := m * k // distance between variables at a fixed clause
	for j, cl := range e.f.Clauses {
		// g_v = pos+neg is 0 when the signs differ, else ±2 with their
		// common sign. Count the zeros and fold the nonzero signs.
		zeros, zi := 0, -1
		par := uint64(0) // parity of the negative nonzero g_v
		for v, o := 0, j*k+s; v < n; v, o = v+1, o+stride {
			sp, sn := signBit(pos[o]), signBit(neg[o])
			if sp != sn {
				if zeros++; zeros == 2 {
					return 0, false
				}
				zi = v
			} else {
				par ^= sp
			}
		}
		// c_j = Σ_l lit_l · sgn(prod_{v≠v(l)} g_v): with one zero factor
		// only the literal sitting on it survives; with none the
		// leave-one-out sign is par with g_v(l) divided back out.
		c := int64(0)
		for _, l := range cl {
			v := int(l.Var()) - 1
			o := v*stride + j*k + s
			sp := signBit(pos[o])
			lit := sp
			if l.IsNeg() {
				lit = signBit(neg[o])
			}
			switch {
			case zeros == 0:
				c += 1 - 2*int64(lit^par^sp)
			case v == zi:
				c += 1 - 2*int64(lit^par)
			}
		}
		if c == 0 {
			return 0, false
		}
		e.c[j] = c
	}
	// tau_N: a variable's branch product is the parity of its m signs;
	// a bound variable contributes its branch's sign, a free one the
	// branch sum, which vanishes unless both parities agree.
	par := uint64(0)
	for i := 0; i < n; i++ {
		var pp, pn uint64
		for o := i*stride + s; o < (i+1)*stride; o += k {
			pp ^= signBit(pos[o])
			pn ^= signBit(neg[o])
		}
		switch e.bound[i+1] {
		case cnf.True:
			par ^= pp
		case cnf.False:
			par ^= pn
		default:
			if pp != pn {
				return 0, false
			}
			par ^= pp
		}
	}
	return 1 - 2*int64(par), true
}

// sample64 assembles a nonzero narrow sample t · prod_j e.c[j] · 2^shift;
// widthBits guarantees it fits.
func (e *Engine) sample64(t int64, shift uint) int64 {
	for _, c := range e.c {
		t *= c
	}
	return t << shift
}

// shift is the power of two every nonzero sample carries under the
// current bindings: 2 per free variable's branch sum and 2^(n-1) per
// clause.
func (e *Engine) shift() uint {
	u := 0
	for v := 1; v <= e.n; v++ {
		if e.bound[v] == cnf.Unassigned {
			u++
		}
	}
	return uint(u + e.m*(e.n-1))
}

// Result reports an RTW check.
type Result struct {
	Satisfiable bool
	Mean        float64
	StdErr      float64
	Samples     int64
}

// Check estimates mean(S_N) over the given number of samples and applies
// the theta-standard-errors decision rule of the core engine.
func (e *Engine) Check(samples int64, theta float64) Result {
	r, _ := e.CheckCtx(context.Background(), samples, theta)
	return r
}

// CheckCtx is Check with cancellation: the sampling loop advances in
// blocks of the cache-aware e.block size through the factored block
// kernel, polls ctx at every block boundary, and returns the partial
// Result with ctx.Err() when the context ends. The per-source streams
// are identical for any block size, so the batch size never changes
// the verdict. Narrow geometries accumulate the exact int64 samples in
// a Welford accumulator; wide ones (int64 bound exceeded) keep exact
// big.Int moments, same contract.
func (e *Engine) CheckCtx(ctx context.Context, samples int64, theta float64) (Result, error) {
	shift := e.shift()
	var w stats.Welford
	ws := &e.wsc
	ws.sum.SetInt64(0)
	ws.sum2.SetInt64(0)
	count := int64(0)
	for count < samples {
		if err := ctx.Err(); err != nil {
			if e.wide {
				r := e.wideResult(&ws.sum, &ws.sum2, count, theta)
				r.Satisfiable = false // partial run: no verdict
				return r, err
			}
			return Result{Mean: w.Mean(), StdErr: w.StdErr(), Samples: w.Count()}, err
		}
		k := int(min(int64(e.block), samples-count))
		b := e.fillBlock(k)
		if e.wide {
			for s := 0; s < k; s++ {
				if t, ok := e.factor(b, k, s); ok {
					e.addWide(t, shift)
				}
			}
		} else {
			out := b.out[:k]
			for s := range out {
				out[s] = 0
				if t, ok := e.factor(b, k, s); ok {
					out[s] = float64(e.sample64(t, shift))
				}
			}
			w.AddN(out)
		}
		count += int64(k)
	}
	if e.wide {
		return e.wideResult(&ws.sum, &ws.sum2, count, theta), nil
	}
	se := w.StdErr()
	sat := false
	if se > 0 && !math.IsInf(se, 0) {
		sat = w.Mean() > theta*se
	} else if w.Mean() > 0 {
		// Zero variance with a positive mean: every sample agreed.
		sat = true
	}
	return Result{Satisfiable: sat, Mean: w.Mean(), StdErr: se, Samples: w.Count()}, nil
}
