// Package repro is the public API of the NBL-SAT reproduction: Boolean
// satisfiability solving with noise-based logic, after Lin, Mandal and
// Khatri, "Boolean Satisfiability using Noise Based Logic" (DAC 2012 /
// arXiv:1110.0550).
//
// Every engine in the repository — the paper's NBL engines (mc, exact,
// rtw, sbl, analog, hybrid) and the classical baselines (dpll, cdcl,
// walksat) — implements one interface and lives in one registry:
//
//	Solver: Solve(ctx context.Context, f *Formula) (Result, error)
//
// with a three-valued Status (SAT / UNSAT / UNKNOWN), an optional model,
// wall time, and a common Stats block. A "portfolio" engine races any
// lineup of the others in parallel and returns the first definitive
// verdict, cancelling the losers. All engines honor context
// cancellation and deadlines in their hot loops.
//
// Quickstart:
//
//	f := repro.FromClauses([]int{1, 2}, []int{-1, -2})
//	s, _ := repro.New("portfolio", repro.WithSeed(42))
//	r, _ := s.Solve(context.Background(), f)
//	fmt.Println(r.Status, r.Engine)   // SATISFIABLE cdcl
//
// Pick a specific engine with repro.New("mc"), repro.New("cdcl"), ...;
// repro.Engines() lists everything registered. The pre-registry entry
// points (NewEngine, SolveDPLL, SolveCDCL, SolveWalkSAT) remain as thin
// wrappers.
//
// The facade re-exports the pieces a library user needs — CNF modeling,
// DIMACS I/O, the solver registry, and the instance generators — while
// the full machinery lives in the internal packages (see DESIGN.md for
// the map).
package repro

import (
	"context"
	"io"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/dimacs"
	"repro/internal/dpll"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/walksat"

	// The remaining engines register themselves with the solver registry
	// on import; the facade links them all in so repro.New can build any
	// of them by name.
	_ "repro/internal/analog"
	_ "repro/internal/hybrid"
	_ "repro/internal/pipeline"
	_ "repro/internal/portfolio"
	_ "repro/internal/rtw"
	_ "repro/internal/sbl"
)

// Core CNF types, re-exported.
type (
	// Formula is a CNF formula (conjunction of clauses).
	Formula = cnf.Formula
	// Clause is a disjunction of literals.
	Clause = cnf.Clause
	// Lit is a literal in packed encoding.
	Lit = cnf.Lit
	// Var is a 1-based variable identifier.
	Var = cnf.Var
	// Value is a three-valued truth value.
	Value = cnf.Value
	// Assignment maps variables to truth values.
	Assignment = cnf.Assignment
)

// Truth values.
const (
	Unassigned = cnf.Unassigned
	False      = cnf.False
	True       = cnf.True
)

// Unified solver API, re-exported from internal/solver.
type (
	// Solver is the one interface every engine implements.
	Solver = solver.Solver
	// Result is the unified solve outcome: Status, optional model,
	// engine name, wall time, Stats.
	Result = solver.Result
	// Status is the three-valued verdict.
	Status = solver.Status
	// Stats is the common effort block.
	Stats = solver.Stats
	// Option is a functional option for New.
	Option = solver.Option
	// Config is the explicit-options form used by NewWith.
	Config = solver.Config
	// Task names what a solve should produce: a decision, an exact model
	// count, a weighted count (clause-cover K'), or an equivalence verdict.
	Task = solver.Task
)

// Verdicts.
const (
	StatusUnknown = solver.StatusUnknown
	StatusSat     = solver.StatusSat
	StatusUnsat   = solver.StatusUnsat
)

// Solve tasks.
const (
	TaskDecide        = solver.TaskDecide
	TaskCount         = solver.TaskCount
	TaskWeightedCount = solver.TaskWeightedCount
	TaskEquivalent    = solver.TaskEquivalent
)

// Functional options for New, re-exported.
var (
	WithSeed       = solver.WithSeed
	WithMaxSamples = solver.WithMaxSamples
	WithTheta      = solver.WithTheta
	WithWorkers    = solver.WithWorkers
	WithFamily     = solver.WithFamily
	WithAllocation = solver.WithAllocation
	WithMaxFlips   = solver.WithMaxFlips
	WithRestarts   = solver.WithRestarts
	WithNoiseP     = solver.WithNoiseP
	WithCandidates = solver.WithCandidates
	WithModel      = solver.WithModel
	WithMembers    = solver.WithMembers
	WithTask       = solver.WithTask
)

// ParseTask maps a task name ("", "decide", "count", "weighted-count",
// "equivalent") to its Task; "" means decide.
func ParseTask(s string) (Task, error) { return solver.ParseTask(s) }

// ProgressFunc observes live Stats snapshots of a solve in flight; see
// ContextWithProgress.
type ProgressFunc = solver.ProgressFunc

// ContextWithProgress returns a context carrying a progress observer:
// engines that support live progress (the Monte-Carlo sampler reports
// samples/mean/stderr at every convergence-round boundary) invoke it
// with partial Stats while solving. nblserve's job progress rides this.
func ContextWithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return solver.ContextWithProgress(ctx, fn)
}

// New builds a registered engine by name: "mc", "exact", "rtw", "sbl",
// "analog", "hybrid", "dpll", "cdcl", "walksat", or "portfolio".
// Meta-engine expressions compose around any of them: "pre(mc)" runs
// the preprocess-and-decompose pipeline in front of the Monte-Carlo
// engine (see internal/pipeline), and works anywhere an engine name
// does — including as a portfolio member.
func New(name string, opts ...Option) (Solver, error) { return solver.New(name, opts...) }

// NewWith is New with an explicit Config.
func NewWith(name string, cfg Config) (Solver, error) { return solver.NewWith(name, cfg) }

// Register installs a custom engine factory under a name.
func Register(name string, f solver.Factory) { solver.Register(name, f) }

// Engines returns the sorted names of all registered engines.
func Engines() []string { return solver.Engines() }

// Solve is a one-call convenience: build the named engine and solve f.
func Solve(ctx context.Context, engine string, f *Formula, opts ...Option) (Result, error) {
	s, err := New(engine, opts...)
	if err != nil {
		return Result{}, err
	}
	return s.Solve(ctx, f)
}

// NBL engine types, re-exported for direct (pre-registry) use.
type (
	// Engine is the Monte-Carlo NBL-SAT engine.
	Engine = core.Engine
	// Options configures an Engine.
	Options = core.Options
	// CheckResult is one NBL-SAT check outcome (Algorithm 1).
	CheckResult = core.Result
	// AssignResult is an Algorithm 2 outcome.
	AssignResult = core.AssignResult
	// Family selects the basis noise family.
	Family = noise.Family
)

// Noise families.
const (
	// UniformHalf is the paper's U[-0.5, 0.5] family.
	UniformHalf = noise.UniformHalf
	// UniformUnit is the variance-normalized uniform family
	// (recommended: no sigma^(2nm) underflow).
	UniformUnit = noise.UniformUnit
	// Gaussian is the standard normal family.
	Gaussian = noise.Gaussian
	// RTW is the ±1 random-telegraph-wave family.
	RTW = noise.RTW
)

// NewFormula returns an empty formula over n variables.
func NewFormula(n int) *Formula { return cnf.New(n) }

// NewAssignment returns an all-unassigned assignment over n variables.
func NewAssignment(n int) Assignment { return cnf.NewAssignment(n) }

// FromClauses builds a formula from DIMACS-style signed integer clauses.
func FromClauses(clauses ...[]int) *Formula { return cnf.FromClauses(clauses...) }

// ReadDIMACS parses a DIMACS CNF stream.
func ReadDIMACS(r io.Reader) (*Formula, error) { return dimacs.Read(r) }

// WriteDIMACS emits a formula in DIMACS CNF format.
func WriteDIMACS(w io.Writer, f *Formula, comment string) error {
	return dimacs.Write(w, f, comment)
}

// NewEngine builds a Monte-Carlo NBL-SAT engine (Algorithms 1 and 2 of
// the paper). Zero-valued Options fields take sensible defaults.
//
// Deprecated: prefer New("mc", ...), which returns the unified Solver.
func NewEngine(f *Formula, opts Options) (*Engine, error) {
	return core.NewEngine(f, opts)
}

// ExactCheck is the idealized (infinite-sample) Algorithm 1: it reports
// satisfiability through the closed-form E[S_N] > 0 test. Exponential in
// n (it enumerates assignments); intended for instances the Monte-Carlo
// engine can handle anyway.
func ExactCheck(f *Formula) bool { return core.ExactCheck(f) }

// ExactAssign is the idealized Algorithm 2: a satisfying assignment via
// n+1 exact checks.
func ExactAssign(f *Formula) (Assignment, bool) { return core.ExactAssign(f) }

// SolveDPLL runs the classical DPLL baseline.
//
// Deprecated: prefer New("dpll").
func SolveDPLL(f *Formula) (Assignment, bool) { return dpll.Solve(f) }

// SolveCDCL runs the conflict-driven clause-learning baseline.
//
// Deprecated: prefer New("cdcl").
func SolveCDCL(f *Formula) (Assignment, bool) { return cdcl.Solve(f) }

// SolveWalkSAT runs the stochastic local-search baseline with default
// options and the given seed. The bool is false when no model was found
// within the search budget (which proves nothing about UNSAT).
//
// Deprecated: prefer New("walksat", WithSeed(seed)).
func SolveWalkSAT(f *Formula, seed uint64) (Assignment, bool) {
	r := walksat.Solve(f, walksat.Options{Seed: seed})
	return r.Assignment, r.Found
}

// CountModels returns the exact number of satisfying assignments as a
// string (the count can exceed uint64 for large free-variable sets).
func CountModels(f *Formula) string { return count.Count(f).String() }

// EquivalenceCNF lowers "are a and b logically equivalent?" to a decide
// instance: it builds the miter of the two formulas (same variable
// count required) and returns its Tseitin CNF. The miter is SAT exactly
// when some shared input assignment makes a and b disagree, so UNSAT
// certifies equivalence.
func EquivalenceCNF(a, b *Formula) (*Formula, error) { return logic.EquivalenceCNF(a, b) }

// RandomKSAT generates a uniform random k-SAT instance.
func RandomKSAT(seed uint64, n, m, k int) *Formula {
	return gen.RandomKSAT(rng.New(seed), n, m, k)
}

// PlantedKSAT generates a guaranteed-satisfiable random k-SAT instance
// together with its planted model.
func PlantedKSAT(seed uint64, n, m, k int) (*Formula, Assignment) {
	return gen.PlantedKSAT(rng.New(seed), n, m, k)
}

// Pigeonhole returns PHP(holes+1, holes): holes+1 pigeons into holes
// holes, the classic provably-UNSAT family that is exponentially hard
// for resolution-based search (dpll, cdcl).
func Pigeonhole(holes int) *Formula { return gen.Pigeonhole(holes) }

// DisjointUnion conjoins formulas over disjoint variable ranges — the
// canonical decomposable workload for the pre(<engine>) pipeline.
func DisjointUnion(fs ...*Formula) *Formula { return gen.DisjointUnion(fs...) }

// PaperSAT and friends return the exact instances used in the paper.
func PaperSAT() *Formula { return gen.PaperSAT() }

// PaperUNSAT returns the unsatisfiable Section IV instance.
func PaperUNSAT() *Formula { return gen.PaperUNSAT() }

// PaperExample6 returns (x1+x2)·(!x1+!x2) from Example 6.
func PaperExample6() *Formula { return gen.PaperExample6() }

// PaperExample7 returns (x1)·(!x1) from Example 7.
func PaperExample7() *Formula { return gen.PaperExample7() }
