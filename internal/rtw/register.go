package rtw

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

func init() {
	solver.Register("rtw", func(cfg solver.Config) solver.Solver {
		return &rtwSolver{cfg: cfg}
	})
}

// rtwSolver adapts the telegraph-wave engine to the registry. Like the
// Monte-Carlo adapter it is warm: the constructed Engine persists
// across Solve calls, and Engine.Reset reuses the bank and scratch
// whenever the (n, m) geometry repeats. Reset reseeds the bank to its
// construction streams, so a warm Solve is result-identical to a cold
// one. The mutex serializes a shared instance; parallel callers (the
// portfolio, the lease pool) hold one instance per goroutine.
type rtwSolver struct {
	cfg solver.Config
	mu  sync.Mutex
	eng *Engine
	// resetFor skips the duplicate Solve-time re-target after a pool
	// Acquire already Reset for the same formula (see the mc adapter).
	resetFor *cnf.Formula
}

// Reset implements solver.Reusable; see the mc adapter for the
// contract. Cold is reported when no engine exists yet, the geometry
// changed, or the new formula is rejected (Solve surfaces the error).
func (s *rtwSolver) Reset(f *cnf.Formula) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetFor = nil
	if s.eng == nil {
		return false
	}
	warm := f.NumVars == s.eng.n && f.NumClauses() == s.eng.m
	if err := s.eng.Reset(f); err != nil {
		s.eng = nil
		return false
	}
	s.resetFor = f
	return warm
}

// Solve wraps the locked solve in the check span. The telegraph-wave
// engine has no round-boundary progress hook, so the span's SNR
// trajectory is the single end-of-check point (the final mean,
// stderr, and distance to the theta·stderr decision line).
func (s *rtwSolver) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	sp, ctx := obs.StartSpan(ctx, "rtw.check")
	if sp != nil {
		sp.SetAttr("n", strconv.Itoa(f.NumVars))
		sp.SetAttr("m", strconv.Itoa(f.NumClauses()))
		// The telegraph engine runs its own integer-parity kernel: neither
		// the float fill kernels nor the block evaluator are on its path.
		sp.SetAttr("eval_accel", "none")
		sp.SetAttr("fill_accel", "none")
	}
	out, err := s.solve(ctx, f)
	if sp != nil {
		if st := out.Stats; st.Samples > 0 {
			dist := 0.0
			if st.StdErr > 0 {
				dist = st.Mean/st.StdErr - s.cfg.Theta
			}
			sp.Point(obs.TrajPoint{
				Round: 1, Samples: st.Samples,
				Mean: st.Mean, StdErr: st.StdErr, Dist: dist,
			})
		}
		sp.SetAttr("samples", strconv.FormatInt(out.Stats.Samples, 10))
		sp.SetAttr("status", out.Status.String())
		sp.Finish()
	}
	return out, err
}

func (s *rtwSolver) solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.FindModel {
		return solver.Result{}, solver.ErrNoModelRecovery("rtw")
	}
	alreadyReset := s.resetFor == f
	s.resetFor = nil
	if s.eng != nil {
		if !alreadyReset {
			if err := s.eng.Reset(f); err != nil {
				return solver.Result{}, err
			}
		}
	} else {
		eng, err := New(f, s.cfg.Seed)
		if err != nil {
			return solver.Result{}, err
		}
		s.eng = eng
	}
	r, err := s.eng.CheckCtx(ctx, s.cfg.MaxSamples, s.cfg.Theta)
	out := solver.Result{
		Stats: solver.Stats{
			Samples: r.Samples, Mean: r.Mean, StdErr: r.StdErr,
			// The integer-parity kernel bypasses both accelerated paths.
			FillAccel: "none", EvalAccel: "none",
		},
	}
	if err != nil {
		return out, err
	}
	// The shared SNR gate is conservative for RTW, whose ±1 carriers
	// need fewer samples than uniform sources.
	out.Status = core.CheckStatus(r.Satisfiable, f.NumVars, f.NumClauses(), r.Samples)
	return out, nil
}
