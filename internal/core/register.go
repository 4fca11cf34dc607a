package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"sync"

	"repro/internal/cnf"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/solver"
)

// This file adapts the two core engines to the unified solver.Solver
// interface and registers them as "mc" (Monte-Carlo Algorithm 1/2) and
// "exact" (infinite-sample closed form).

func init() {
	solver.Register("mc", func(cfg solver.Config) solver.Solver {
		return &mcSolver{cfg: cfg}
	})
	solver.Register("exact", func(cfg solver.Config) solver.Solver {
		return exactSolver{cfg}
	})
}

// UnsatBudgetAdequate reports whether a sample budget gives the
// Section III-F SNR >= 1 for distinguishing a single satisfying minterm
// from none — the minimum statistical footing for an UNSAT claim by a
// sampling engine. It mirrors snr.RequiredSamples(n, m, 1, 1), inlined
// here because package snr depends on core. For n·m beyond ~30 the
// requirement overflows any practical budget and this returns false,
// which is exactly the honest answer.
func UnsatBudgetAdequate(n, m int, samples int64) bool {
	return float64(samples) >= 1+9*math.Pow(4, float64(n*m))
}

// CheckStatus is the one verdict policy shared by every sampling engine
// (mc, rtw, analog): a z-score above theta is significant evidence for
// SAT regardless of budget, but the paper's UNSAT decision (mean not
// significantly positive after the budget) is honored only when the
// consumed budget clears the Section III-F SNR requirement. Below it a
// near-zero mean is just an instance beyond the engine's reach: the
// verdict is UNKNOWN, and must not outrace a complete solver in a
// portfolio with a certified-looking UNSAT.
//
// A not-satisfiable verdict with zero samples is structural, not
// statistical — the engine short-circuited on a degenerate formula (an
// empty clause) without touching the sampler — so it is certain and
// exempt from the SNR gate. (Any genuine sampling run consumes at least
// the MinSamples floor, so zero samples cannot be a starved run.)
func CheckStatus(satisfiable bool, n, m int, samples int64) solver.Status {
	switch {
	case satisfiable:
		return solver.StatusSat
	case samples == 0 || UnsatBudgetAdequate(n, m, samples):
		return solver.StatusUnsat
	default:
		return solver.StatusUnknown
	}
}

// ParseFamily maps the CLI/registry family names to noise families.
func ParseFamily(name string) (noise.Family, error) {
	switch name {
	case "half":
		return noise.UniformHalf, nil
	case "unit", "":
		return noise.UniformUnit, nil
	case "gauss":
		return noise.Gaussian, nil
	case "rtw":
		return noise.RTW, nil
	default:
		return 0, fmt.Errorf("core: unknown noise family %q (want half|unit|gauss|rtw)", name)
	}
}

// mcSolver adapts the Monte-Carlo engine to the registry. It is warm:
// the constructed core.Engine persists across Solve calls, and when
// consecutive formulas share an (n, m) geometry the per-worker noise
// banks, evaluators, and block buffers are reused through Engine.Reset
// instead of being rebuilt — the amortization a long-running solve
// service depends on. Reset restores fresh-engine state (checkSeq zero),
// so a warm Solve is result-identical to a cold one. The mutex makes a
// shared instance safe (calls serialize); anything that wants
// parallelism constructs one instance per goroutine, as the portfolio
// already does.
type mcSolver struct {
	cfg solver.Config
	mu  sync.Mutex
	eng *Engine
	// resetFor notes that Reset already re-targeted eng at this exact
	// formula, so the next Solve can skip the duplicate re-target (the
	// engine lease pool resets on Acquire, then calls Solve with the
	// same formula; re-deriving the streams twice would be pure waste).
	resetFor *cnf.Formula
}

// Reset implements solver.Reusable: it re-targets the warm engine at f
// ahead of the next Solve and reports whether the (n, m) geometry let
// the per-worker banks and buffers survive. An invalid formula drops
// the engine and reports cold — Solve will surface the actual error.
func (s *mcSolver) Reset(f *cnf.Formula) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetFor = nil
	if s.eng == nil {
		return false
	}
	old := s.eng.Formula()
	warm := f.NumVars == old.NumVars && f.NumClauses() == old.NumClauses()
	if err := s.eng.Reset(f); err != nil {
		s.eng = nil
		return false
	}
	s.resetFor = f
	return warm
}

// Solve wraps the locked solve in the check span: name, geometry,
// verdict, and the per-round SNR trajectory fed through the engine's
// Progress hook. On an untraced context the span is nil and the whole
// wrapper is a context lookup — the sampling loop itself never sees
// the tracer.
func (s *mcSolver) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	sp, ctx := obs.StartSpan(ctx, "mc.check")
	if sp != nil {
		sp.SetAttr("n", strconv.Itoa(f.NumVars))
		sp.SetAttr("m", strconv.Itoa(f.NumClauses()))
		sp.SetAttr("eval_accel", hyperspace.EvalAccelName())
		if fam, err := ParseFamily(s.cfg.Family); err == nil {
			sp.SetAttr("fill_accel", noise.FillAccelKernel(fam, noise.StreamV2))
		}
	}
	out, err := s.solve(ctx, f, sp)
	if sp != nil {
		sp.SetAttr("samples", strconv.FormatInt(out.Stats.Samples, 10))
		sp.SetAttr("status", out.Status.String())
		sp.Finish()
	}
	return out, err
}

func (s *mcSolver) solve(ctx context.Context, f *cnf.Formula, sp *obs.Span) (solver.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fam, err := ParseFamily(s.cfg.Family)
	if err != nil {
		return solver.Result{}, err
	}
	eng := s.eng
	alreadyReset := s.resetFor == f
	s.resetFor = nil
	if eng != nil {
		if !alreadyReset {
			if err := eng.Reset(f); err != nil {
				return solver.Result{}, err
			}
		}
	} else {
		eng, err = NewEngine(f, Options{
			Family:     fam,
			Seed:       s.cfg.Seed,
			MaxSamples: s.cfg.MaxSamples,
			Theta:      s.cfg.Theta,
			Workers:    s.cfg.Workers,
		})
		if err != nil {
			return solver.Result{}, err
		}
		s.eng = eng
	}
	// One installed hook serves both consumers: the service's live
	// progress stream and the span's SNR trajectory. The hook fires
	// only at merged convergence-round boundaries (from the
	// coordinating goroutine), so the per-sample hot loop stays
	// untouched either way.
	fn := solver.ProgressFromContext(ctx)
	if fn != nil || sp != nil {
		theta := eng.Options().Theta
		round := 0
		eng.SetProgress(func(samples int64, mean, stderr float64) {
			if fn != nil {
				fn(solver.Stats{Samples: samples, Mean: mean, StdErr: stderr})
			}
			if sp != nil {
				round++
				dist := 0.0
				if stderr > 0 {
					dist = mean/stderr - theta
				}
				sp.Point(obs.TrajPoint{
					Round: round, Samples: samples,
					Mean: mean, StdErr: stderr, Dist: dist,
				})
			}
		})
		defer eng.SetProgress(nil)
	}

	if s.cfg.FindModel {
		res, err := eng.AssignCtx(ctx)
		out := solver.Result{Stats: assignStats(res)}
		stampAccel(&out.Stats, eng)
		switch {
		case err == nil:
			out.Status = solver.StatusSat
			out.Assignment = res.Assignment
			return out, nil
		case errors.Is(err, ErrUnsat):
			// The initial full-space check saw no significant mean; that
			// is only an UNSAT verdict with the SNR budget behind it, same
			// gate as the plain check path below.
			out.Status = CheckStatus(false, f.NumVars, f.NumClauses(), out.Stats.Samples)
			return out, nil
		case errors.Is(err, ErrInconsistent):
			// The reduced checks contradicted each other: the sample
			// budget was too small for the instance's SNR. Not a verdict —
			// surface the diagnostic so callers know to raise MaxSamples
			// or Theta rather than read it as an ordinary budget-exhausted
			// unknown.
			return out, err
		default:
			return out, err
		}
	}

	r, err := eng.CheckCtx(ctx)
	out := solver.Result{
		Stats: solver.Stats{
			Samples: r.Samples, Mean: r.Mean, StdErr: r.StdErr,
		},
	}
	stampAccel(&out.Stats, eng)
	if err != nil {
		return out, err
	}
	out.Status = CheckStatus(r.Satisfiable, f.NumVars, f.NumClauses(), r.Samples)
	return out, nil
}

// stampAccel records the kernel backends the engine's hot path runs
// on: the block-evaluator row kernels, and the noise fill for the
// engine's family.
func stampAccel(st *solver.Stats, eng *Engine) {
	st.EvalAccel = hyperspace.EvalAccelName()
	st.FillAccel = noise.FillAccelKernel(eng.Options().Family, noise.StreamV2)
}

func assignStats(res AssignResult) solver.Stats {
	var st solver.Stats
	for _, c := range res.Checks {
		st.Samples += c.Samples
	}
	if n := len(res.Checks); n > 0 {
		st.Mean = res.Checks[0].Mean
		st.StdErr = res.Checks[0].StdErr
	}
	return st
}

type exactSolver struct{ cfg solver.Config }

func (s exactSolver) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	if f.NumVars > MaxExactVars {
		return solver.Result{}, fmt.Errorf(
			"exact: limited to %d variables, got %d", MaxExactVars, f.NumVars)
	}
	if err := f.Validate(); err != nil {
		return solver.Result{}, err
	}

	if s.cfg.FindModel {
		a, ok, err := ExactAssignCtx(ctx, f)
		if err != nil {
			return solver.Result{}, err
		}
		if !ok {
			return solver.Result{Status: solver.StatusUnsat}, nil
		}
		return solver.Result{Status: solver.StatusSat, Assignment: a}, nil
	}

	k, err := WeightedCountCtx(ctx, f, cnf.NewAssignment(f.NumVars))
	if err != nil {
		return solver.Result{}, err
	}
	mean, _ := new(big.Float).SetInt(k).Float64()
	out := solver.Result{Stats: solver.Stats{Mean: mean}}
	if k.Sign() > 0 {
		out.Status = solver.StatusSat
	} else {
		out.Status = solver.StatusUnsat
	}
	return out, nil
}
