// Package solver defines the unified solving API every engine in the
// repository implements, plus the name-keyed registry that makes the
// engines discoverable at run time.
//
// The design collapses the historical per-engine entry points
// (core.NewEngine(...).Check(), dpll.Solve(f), walksat.Solve(f, opts),
// ...) into one interface:
//
//	Solve(ctx context.Context, f *cnf.Formula) (Result, error)
//
// with a three-valued Status (SAT / UNSAT / UNKNOWN), an optional model,
// and a common Stats block. Engines register themselves under a short
// name in an init function of their own package; anything that imports
// the engine packages (the repro facade, the CLI, the portfolio racer)
// can then construct any of them with New(name, opts...) and race or
// swap them freely.
//
// Cancellation is part of the contract: every registered engine checks
// ctx in its hot loop (sampling, search, flipping) and returns promptly
// with ctx.Err() when the context is cancelled or its deadline expires.
package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cnf"
)

// Task selects what question a solve answers about the formula. The
// registry is task-typed: every engine declares the tasks it supports
// (RegisterTasks; plain decide is the default), and NewWith rejects an
// engine/task mismatch at construction instead of silently deciding.
type Task string

// The solve tasks.
const (
	// TaskDecide is classical satisfiability: SAT / UNSAT / UNKNOWN,
	// optionally with a model. The zero value of Config.Task defaults
	// here, so every pre-task-model caller keeps its behavior.
	TaskDecide Task = "decide"
	// TaskCount is exact model counting (#SAT): Result.Count carries
	// the number of satisfying assignments, and Status is the derived
	// verdict (count > 0 -> SAT, count = 0 -> UNSAT).
	TaskCount Task = "count"
	// TaskWeightedCount is the clause-cover-weighted count K' — the
	// coefficient in the paper's E[S_N] = K'·sigma^(2nm) — carried the
	// same way in Result.Count.
	TaskWeightedCount Task = "weighted-count"
	// TaskEquivalent asks whether two circuits (or CNF bodies) compute
	// the same function. It is not an engine task: callers (the
	// service, the CLI) lower it to TaskDecide on a miter CNF built by
	// internal/logic, so NewWith rejects it with a pointer there.
	TaskEquivalent Task = "equivalent"
)

// ParseTask validates a task name from an untrusted surface (HTTP
// query, CLI flag). The empty string is TaskDecide.
func ParseTask(s string) (Task, error) {
	switch Task(s) {
	case "", TaskDecide:
		return TaskDecide, nil
	case TaskCount, TaskWeightedCount, TaskEquivalent:
		return Task(s), nil
	}
	return "", fmt.Errorf("solver: unknown task %q (tasks: decide, count, weighted-count, equivalent)", s)
}

// Counting reports whether the task produces a model count.
func (t Task) Counting() bool { return t == TaskCount || t == TaskWeightedCount }

// Status is the three-valued verdict of a solve.
type Status int8

const (
	// StatusUnknown means the engine could not decide within its budget
	// (e.g. local search found no model, or the run was cancelled).
	StatusUnknown Status = iota
	// StatusSat means a satisfying assignment exists.
	StatusSat
	// StatusUnsat means no satisfying assignment exists.
	StatusUnsat
)

// String names the status in SAT-competition vocabulary.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SATISFIABLE"
	case StatusUnsat:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

// MarshalJSON encodes the status as its SAT-competition string, the
// form every service client sees.
func (s Status) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the SAT-competition strings (anything else is
// an error, not a silent UNKNOWN).
func (s *Status) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	switch str {
	case "SATISFIABLE":
		*s = StatusSat
	case "UNSATISFIABLE":
		*s = StatusUnsat
	case "UNKNOWN":
		*s = StatusUnknown
	default:
		return fmt.Errorf("solver: unknown status %q", str)
	}
	return nil
}

// Definitive reports whether the status is a verdict (SAT or UNSAT)
// rather than a shrug.
func (s Status) Definitive() bool { return s == StatusSat || s == StatusUnsat }

// Stats is the common effort block every engine fills in as far as its
// notions apply; fields that do not apply stay zero.
type Stats struct {
	// Samples is the number of noise/carrier samples consumed (NBL
	// engines) or simulation timesteps (analog).
	Samples int64 `json:"samples,omitempty"`
	// Decisions and Propagations count search effort (dpll, cdcl, hybrid).
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	// Conflicts counts conflicts (cdcl) or backtracks (dpll, hybrid).
	Conflicts int64 `json:"conflicts,omitempty"`
	// Flips and Restarts count local-search effort (walksat).
	Flips    int64 `json:"flips,omitempty"`
	Restarts int64 `json:"restarts,omitempty"`
	// Probes counts NBL-coprocessor invocations (hybrid).
	Probes int64 `json:"probes,omitempty"`
	// Mean and StdErr describe the final S_N statistic (NBL engines).
	Mean   float64 `json:"mean,omitempty"`
	StdErr float64 `json:"stderr,omitempty"`
	// NMBefore and NMAfter record the n·m product before and after
	// preprocessing, and Components the number of variable-disjoint
	// subformulas solved independently (pipeline meta-engines). Zero
	// everywhere else.
	NMBefore   int64 `json:"nm_before,omitempty"`
	NMAfter    int64 `json:"nm_after,omitempty"`
	Components int64 `json:"components,omitempty"`
	// FillAccel and EvalAccel name the accelerated kernels active in the
	// build that produced this result ("avx2" or "none"): FillAccel the
	// noise-fill backend for the engine's noise family, EvalAccel the
	// S_N block-evaluator row kernels. Both backends are
	// bit-identical to the portable paths, so these are provenance
	// fields, not result qualifiers. Empty for engines without a sampled
	// hot path, which keeps their records byte-identical.
	FillAccel string `json:"fill_accel,omitempty"`
	EvalAccel string `json:"eval_accel,omitempty"`
}

// Add accumulates other into s field-wise (used by the portfolio to
// report combined effort). Mean and StdErr are deliberately left alone:
// they are statistics, not counters, and summing them across engines
// would be meaningless — the caller decides whose statistic survives.
// NMBefore/NMAfter/Components likewise describe one preprocessing run,
// not an accumulable effort, and stay with whoever set them.
// FillAccel and EvalAccel are identities, not counters: s keeps its own
// when set, and otherwise adopts other's (all components run in one
// build, so any component's kernel name is the merge's).
func (s *Stats) Add(other Stats) {
	s.Samples += other.Samples
	s.Decisions += other.Decisions
	s.Propagations += other.Propagations
	s.Conflicts += other.Conflicts
	s.Flips += other.Flips
	s.Restarts += other.Restarts
	s.Probes += other.Probes
	if s.FillAccel == "" {
		s.FillAccel = other.FillAccel
	}
	if s.EvalAccel == "" {
		s.EvalAccel = other.EvalAccel
	}
}

// Result is the unified outcome of a solve.
type Result struct {
	// Status is the three-valued verdict.
	Status Status
	// Assignment is a satisfying assignment when Status is StatusSat and
	// the engine produces models (complete engines always do; NBL check
	// engines only under WithModel).
	Assignment cnf.Assignment
	// Engine is the registry name of the engine that produced the
	// verdict. For a portfolio solve it names the winning member.
	Engine string
	// Count is the model count for counting tasks (TaskCount: #models;
	// TaskWeightedCount: the clause-cover-weighted K'), nil for decide
	// solves. big.Int because free variables double the count per head
	// and weights multiply — uint64 overflows at 64 free variables.
	Count *big.Int
	// Wall is the wall-clock duration of the solve.
	Wall time.Duration
	// Stats is the engine's effort accounting.
	Stats Stats
}

func (r Result) String() string {
	s := fmt.Sprintf("%s [%s %v]", r.Status, r.Engine, r.Wall.Round(time.Microsecond))
	if r.Count != nil {
		s += " count " + r.Count.String()
	}
	if r.Status == StatusSat && r.Assignment != nil {
		s += " model " + r.Assignment.String()
	}
	return s
}

// resultJSON is the wire form of Result: the model is rendered as
// DIMACS signed literals (only assigned variables appear) and the wall
// clock in integer nanoseconds, so any HTTP client can parse a verdict
// without knowing the packed in-memory encodings.
type resultJSON struct {
	Status Status `json:"status"`
	Model  []int  `json:"model,omitempty"`
	Engine string `json:"engine,omitempty"`
	// Count is the model count as a decimal string: counts routinely
	// exceed 2^53, so a JSON number would silently lose precision in
	// every JavaScript (and most dynamically-typed) clients. Absent for
	// decide solves, which keeps pre-task-model verdict records
	// byte-identical.
	Count  string  `json:"count,omitempty"`
	WallNS int64   `json:"wall_ns"`
	Wall   string  `json:"wall"`
	Stats  Stats   `json:"stats"`
	ZScore float64 `json:"z,omitempty"`
}

// MarshalJSON implements json.Marshaler for the service API.
func (r Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{
		Status: r.Status,
		Engine: r.Engine,
		WallNS: r.Wall.Nanoseconds(),
		Wall:   r.Wall.String(),
		Stats:  r.Stats,
	}
	if r.Stats.StdErr != 0 {
		out.ZScore = r.Stats.Mean / r.Stats.StdErr
	}
	if r.Count != nil {
		out.Count = r.Count.String()
	}
	if r.Assignment != nil {
		for v := cnf.Var(1); int(v) < len(r.Assignment); v++ {
			switch r.Assignment.Get(v) {
			case cnf.True:
				out.Model = append(out.Model, int(v))
			case cnf.False:
				out.Model = append(out.Model, -int(v))
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON. The assignment length is
// inferred from the largest variable in the model, so a partial model
// over unnumbered trailing variables round-trips to an equivalent (not
// necessarily identical-length) assignment.
func (r *Result) UnmarshalJSON(data []byte) error {
	var in resultJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	r.Status = in.Status
	r.Engine = in.Engine
	r.Wall = time.Duration(in.WallNS)
	r.Stats = in.Stats
	r.Assignment = nil
	r.Count = nil
	if in.Count != "" {
		c, ok := new(big.Int).SetString(in.Count, 10)
		if !ok {
			return fmt.Errorf("solver: bad count %q", in.Count)
		}
		r.Count = c
	}
	if len(in.Model) > 0 {
		maxVar := 0
		for _, x := range in.Model {
			if x < 0 {
				x = -x
			}
			if x == 0 {
				return fmt.Errorf("solver: model literal 0")
			}
			if x > maxVar {
				maxVar = x
			}
		}
		a := cnf.NewAssignment(maxVar)
		for _, x := range in.Model {
			if x > 0 {
				a.Set(cnf.Var(x), cnf.True)
			} else {
				a.Set(cnf.Var(-x), cnf.False)
			}
		}
		r.Assignment = a
	}
	return nil
}

// ProgressFunc observes a live Stats snapshot of a solve in flight.
// Implementations must be fast and concurrency-safe: engines may call
// them from their sampling loops, and a pipeline or portfolio solve
// invokes the same hook from several component goroutines.
type ProgressFunc func(Stats)

// progressKey carries a ProgressFunc through a context.
type progressKey struct{}

// ContextWithProgress returns a context carrying fn. Engines that
// support live progress (the Monte-Carlo sampler reports at every
// convergence-round boundary) look the hook up with
// ProgressFromContext and call it with partial Stats while solving.
// The hook travels with the context — not with the engine — so a
// long-lived (warm) solver instance can serve many requests, each with
// its own observer.
func ContextWithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFromContext returns the progress hook carried by ctx, or nil.
func ProgressFromContext(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// Solver is the one interface every engine implements.
//
// Solve must honor ctx: on cancellation or deadline expiry it returns
// promptly with a Result carrying whatever partial stats it has,
// StatusUnknown, and ctx.Err().
type Solver interface {
	Solve(ctx context.Context, f *cnf.Formula) (Result, error)
}

// Reusable is implemented by solvers whose constructed state — noise
// banks, evaluators, block buffers — outlives a single Solve and can be
// re-targeted at a new formula. It is the contract the engine lease
// pool (internal/enginepool) is built on: a leased solver is Reset
// before every reuse, and the boolean reports whether the reuse was
// warm.
//
// Reset must leave the solver result-identical to a freshly
// constructed one: a warm Solve after Reset returns bit-for-bit the
// Result a cold instance would (the conformance tests assert this for
// every pooled engine). The return value is purely an accounting
// signal — true when the (n, m) geometry class of f allowed the
// bank/buffer state to be kept (a warm hit), false when internal state
// had to be dropped or never existed (the solver is still usable, just
// cold). Reset must not fail: formula validation stays in Solve, where
// the error has a caller to land on.
type Reusable interface {
	Solver
	Reset(f *cnf.Formula) bool
}

// Func adapts a plain function to the Solver interface.
type Func func(ctx context.Context, f *cnf.Formula) (Result, error)

// Solve implements Solver.
func (fn Func) Solve(ctx context.Context, f *cnf.Formula) (Result, error) {
	return fn(ctx, f)
}

// Config carries every knob an engine may consult. Engines read the
// fields they understand and ignore the rest, so one Config can
// configure a whole portfolio.
type Config struct {
	// Seed seeds stochastic engines. Default 1.
	Seed uint64
	// MaxSamples is the sample/step budget of the NBL engines. Zero (or
	// negative) selects the registry default of 4,000,000 — applied
	// uniformly to every engine so portfolio members race on equal
	// budgets; construct an engine via its own package to get its
	// package-level default instead.
	MaxSamples int64
	// Theta is the SAT decision threshold in standard errors for the
	// statistical engines. 0 selects the default (4).
	Theta float64
	// Workers is the Monte-Carlo engine's sampling parallelism.
	Workers int
	// Family selects the mc noise family: "half", "unit", "gauss", "rtw".
	// Default "unit".
	Family string
	// Allocation selects the sbl carrier plan: "geometric4" or "linear".
	Allocation string
	// MaxFlips, Restarts and NoiseP configure walksat.
	MaxFlips int
	Restarts int
	NoiseP   float64
	// Candidates caps hybrid coprocessor probes per decision (0 = all).
	Candidates int
	// FindModel asks the mc engine to also run Algorithm 2 and return a
	// satisfying assignment on SAT. Complete engines (exact, dpll, cdcl,
	// hybrid) and walksat return a model regardless; the check-only NBL
	// engines (rtw, sbl, analog) reject the option with an error rather
	// than silently ignore it.
	FindModel bool
	// Members lists the engines a portfolio races. Empty selects the
	// default lineup.
	Members []string
	// Task selects what the solve computes (decide, count,
	// weighted-count); zero defaults to TaskDecide. The task rides the
	// Config — not a separate parameter — because it changes engine
	// behavior the same way every other knob does: a pre() shell warmed
	// under decide must not serve a counting request (the pipeline
	// reads its task to pick count-safe preprocessing), so the task
	// must separate pool and cache identities, which Key() guarantees.
	Task Task
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Family == "" {
		c.Family = "unit"
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 4_000_000 // the core engine's per-check budget
	}
	if c.Theta == 0 {
		c.Theta = 4
	}
	if c.Task == "" {
		c.Task = TaskDecide
	}
	return c
}

// Key folds every engine-selecting knob into a comparison string: two
// Configs with equal Keys construct behaviorally identical engines, so
// the key is what warm-state reuse (the engine lease pool, the service
// verdict cache) may safely share across. Defaults are applied first —
// a zero Config and an explicit default Config select the same engine
// and must key identically.
//
// The task is appended only when it is not decide: every decide
// Config keys byte-identically to its pre-task-model form, so
// verdict-store files written before tasks existed replay unchanged
// (the durable store persists these keys across releases).
func (c Config) Key() string {
	c = c.withDefaults()
	key := fmt.Sprintf("%d|%d|%g|%d|%s|%s|%d|%d|%g|%d|%t|%v",
		c.Seed, c.MaxSamples, c.Theta, c.Workers, c.Family, c.Allocation,
		c.MaxFlips, c.Restarts, c.NoiseP, c.Candidates, c.FindModel, c.Members)
	if c.Task != TaskDecide {
		key += "|" + string(c.Task)
	}
	return key
}

// Option mutates a Config (functional options for New).
type Option func(*Config)

// WithSeed seeds stochastic engines.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithMaxSamples sets the sample/step budget of the NBL engines.
func WithMaxSamples(n int64) Option { return func(c *Config) { c.MaxSamples = n } }

// WithTheta sets the SAT decision threshold in standard errors.
func WithTheta(theta float64) Option { return func(c *Config) { c.Theta = theta } }

// WithWorkers sets the Monte-Carlo sampling parallelism.
func WithWorkers(w int) Option { return func(c *Config) { c.Workers = w } }

// WithFamily selects the mc noise family by name.
func WithFamily(name string) Option { return func(c *Config) { c.Family = name } }

// WithAllocation selects the sbl carrier frequency plan by name.
func WithAllocation(name string) Option { return func(c *Config) { c.Allocation = name } }

// WithMaxFlips bounds walksat flips per restart.
func WithMaxFlips(n int) Option { return func(c *Config) { c.MaxFlips = n } }

// WithRestarts sets the walksat restart count.
func WithRestarts(n int) Option { return func(c *Config) { c.Restarts = n } }

// WithNoiseP sets the walksat random-walk probability.
func WithNoiseP(p float64) Option { return func(c *Config) { c.NoiseP = p } }

// WithCandidates caps hybrid coprocessor probes per decision.
func WithCandidates(n int) Option { return func(c *Config) { c.Candidates = n } }

// WithModel asks check-style engines to also recover a model on SAT.
func WithModel(find bool) Option { return func(c *Config) { c.FindModel = find } }

// WithMembers sets the portfolio lineup.
func WithMembers(names ...string) Option { return func(c *Config) { c.Members = names } }

// WithTask selects the solve task (decide, count, weighted-count).
func WithTask(t Task) Option { return func(c *Config) { c.Task = t } }

// CompleteResult maps a complete-search outcome onto a Result: a
// non-nil error passes through (verdict unknown, partial stats kept), a
// model means SAT, and a finished search without one is a certified
// UNSAT. It is the shared adapter tail of the complete engines (dpll,
// cdcl, hybrid).
func CompleteResult(a cnf.Assignment, ok bool, err error, stats Stats) (Result, error) {
	out := Result{Stats: stats}
	if err != nil {
		return out, err
	}
	if ok {
		out.Status = StatusSat
		out.Assignment = a
	} else {
		out.Status = StatusUnsat
	}
	return out, nil
}

// CountResult maps an exact-counting outcome onto a Result: a non-nil
// error passes through (verdict unknown, partial stats kept), a
// positive count means SAT, and an exact zero is a certified UNSAT. It
// is the shared adapter tail of the counting engines (count, wcount)
// and the pipeline's counting paths, the counting analogue of
// CompleteResult.
func CountResult(count *big.Int, err error, stats Stats) (Result, error) {
	out := Result{Stats: stats}
	if err != nil {
		return out, err
	}
	if count == nil {
		return out, fmt.Errorf("solver: counting engine produced no count")
	}
	out.Count = count
	if count.Sign() > 0 {
		out.Status = StatusSat
	} else {
		out.Status = StatusUnsat
	}
	return out, nil
}

// ErrNoModelRecovery is the error a check-only engine returns when
// Config.FindModel is requested: the option must fail loudly rather
// than be silently ignored.
func ErrNoModelRecovery(engine string) error {
	return fmt.Errorf(
		"%s: model recovery (WithModel) is not implemented; use mc or a complete engine", engine)
}

// Factory builds a configured engine. Construction must not fail;
// instance-dependent validation belongs in Solve (the formula is not
// known yet at construction time).
type Factory func(cfg Config) Solver

// MetaFactory builds a meta-engine from a parenthesized engine
// expression: a name of the form "meta(inner)" resolves the registered
// MetaFactory for "meta" with the inner expression verbatim. The inner
// expression is itself a registry name — possibly another meta
// expression — so wrappers compose: "pre(mc)", "pre(portfolio)",
// "pre(pre(cdcl))" all parse. Construction may fail (unlike Factory):
// the inner name is only known at parse time and an unknown inner
// engine must surface immediately, not at Solve.
type MetaFactory func(inner string, cfg Config) (Solver, error)

var (
	regMu     sync.RWMutex
	registry  = map[string]Factory{}
	metas     = map[string]MetaFactory{}
	stateless = map[string]bool{}
	// taskSupport maps an engine or meta name to the tasks it can
	// execute. Absent means {decide}: every pre-task engine decides, so
	// the registry's default keeps old registrations valid without a
	// migration.
	taskSupport = map[string][]Task{}
)

// RegisterTasks declares the tasks the named engine or meta shell
// supports, replacing the implicit decide-only default. Typically
// called from the same init that registers the engine. NewWith consults
// this table and rejects an engine/task mismatch loudly instead of
// letting a counting request be silently answered with a bare verdict.
func RegisterTasks(name string, tasks ...Task) {
	regMu.Lock()
	defer regMu.Unlock()
	taskSupport[name] = append([]Task(nil), tasks...)
}

// Capabilities describes what a registered engine expression can do.
type Capabilities struct {
	// Tasks lists the tasks the expression supports.
	Tasks []Task
}

// Supports reports whether t is in the capability set.
func (c Capabilities) Supports(t Task) bool {
	for _, have := range c.Tasks {
		if have == t {
			return true
		}
	}
	return false
}

// CapabilitiesOf resolves the capability set of an engine expression.
// A plain name yields its registered task list (default: decide only).
// A meta expression "meta(inner)" yields the intersection of the
// shell's tasks with the inner expression's — a count-capable pre()
// around a decide-only engine cannot count, and vice versa. Unknown
// names are an error.
func CapabilitiesOf(expr string) (Capabilities, error) {
	regMu.RLock()
	_, plain := registry[expr]
	list, listed := taskSupport[expr]
	regMu.RUnlock()
	if plain {
		if !listed {
			return Capabilities{Tasks: []Task{TaskDecide}}, nil
		}
		return Capabilities{Tasks: append([]Task(nil), list...)}, nil
	}
	if meta, inner, ok := splitMeta(expr); ok {
		regMu.RLock()
		_, found := metas[meta]
		metaList, metaListed := taskSupport[meta]
		regMu.RUnlock()
		if found {
			innerCaps, err := CapabilitiesOf(inner)
			if err != nil {
				return Capabilities{}, err
			}
			if !metaListed {
				metaList = []Task{TaskDecide}
			}
			var both []Task
			for _, t := range metaList {
				if innerCaps.Supports(t) {
					both = append(both, t)
				}
			}
			return Capabilities{Tasks: both}, nil
		}
	}
	return Capabilities{}, fmt.Errorf("solver: unknown engine %q (registered: %v, meta: %v)",
		expr, Engines(), Metas())
}

// checkTask enforces the engine/task contract at construction time. It
// deliberately ignores unknown expressions (NewWith's own unknown-name
// error is the better message) and never accepts TaskEquivalent: that
// task is not executable by any engine — callers lower it to TaskDecide
// on a miter CNF (logic.EquivalenceCNF) before reaching the registry.
func checkTask(expr string, task Task) error {
	if task == TaskDecide {
		return nil
	}
	if task == TaskEquivalent {
		return fmt.Errorf(
			"solver: task %q is not an engine task; lower it to a decide on a miter CNF (logic.EquivalenceCNF) first", task)
	}
	caps, err := CapabilitiesOf(expr)
	if err != nil {
		return nil // unknown name: let NewWith's lookup error fire instead
	}
	if !caps.Supports(task) {
		return fmt.Errorf("solver: engine %q does not support task %q (supported: %v)",
			expr, task, caps.Tasks)
	}
	return nil
}

// MarkStateless declares that the named engine or meta shell holds no
// geometry-sized state of its own: its Reset is unconditionally warm
// because the warmth lives elsewhere (a pre shell's inner engines, a
// portfolio's members — each leased separately from the pool). The
// engine lease pool keys such expressions geometry-free, so one idle
// shell serves every (n, m) instead of occupying one LRU slot per
// geometry class it ever touched. Typically called from the same init
// that registers the engine.
func MarkStateless(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	stateless[name] = true
}

// Stateless reports whether the engine expression's top-level name —
// "pre" for "pre(mc)", the name itself for a plain engine — is marked
// stateless. Only the top level matters: a stateless shell around a
// stateful inner engine is still a stateless *instance*, because the
// inner engine is leased per-solve, not held by the shell.
func Stateless(expr string) bool {
	name := expr
	if meta, _, ok := splitMeta(expr); ok {
		name = meta
	}
	regMu.RLock()
	defer regMu.RUnlock()
	return stateless[name]
}

// Register installs an engine factory under a name. It panics on a
// duplicate name: engine names are a flat public namespace and a silent
// overwrite would make solver behavior import-order dependent.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: Register called twice for %q", name))
	}
	if _, dup := metas[name]; dup {
		panic(fmt.Sprintf("solver: Register %q collides with a registered meta-engine", name))
	}
	if f == nil {
		panic(fmt.Sprintf("solver: Register %q with nil factory", name))
	}
	registry[name] = f
}

// RegisterMeta installs a meta-engine factory under a name, reachable
// as "name(inner)" through New/NewWith. Like Register it panics on a
// duplicate or nil registration; the two namespaces are shared (a meta
// may not collide with a plain engine name, or "name(x)" would be
// ambiguous with a formula-level reading of "name").
func RegisterMeta(name string, f MetaFactory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := metas[name]; dup {
		panic(fmt.Sprintf("solver: RegisterMeta called twice for %q", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: RegisterMeta %q collides with a registered engine", name))
	}
	if f == nil {
		panic(fmt.Sprintf("solver: RegisterMeta %q with nil factory", name))
	}
	metas[name] = f
}

// Engines returns the sorted names of all registered engines.
func Engines() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Metas returns the sorted names of all registered meta-engines; each
// is used as "name(inner)" where inner is any engine expression.
func Metas() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(metas))
	for name := range metas {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the named engine with the given options applied over the
// defaults. The returned Solver stamps Result.Engine and Result.Wall and
// short-circuits on an already-cancelled context, so individual engines
// need not repeat either.
func New(name string, opts ...Option) (Solver, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return NewWith(name, cfg)
}

// NewWith is New with an explicit Config — the portfolio uses it to
// propagate one shared Config to every member. Besides plain registry
// names it accepts meta-engine expressions of the form "meta(inner)"
// (e.g. "pre(mc)"): the meta factory registered for "meta" wraps the
// engine built from the inner expression.
func NewWith(name string, cfg Config) (Solver, error) {
	cfg = cfg.withDefaults()
	if err := checkTask(name, cfg.Task); err != nil {
		return nil, err
	}
	regMu.RLock()
	factory, ok := registry[name]
	regMu.RUnlock()
	if ok {
		return wrap(name, factory(cfg.withDefaults())), nil
	}
	if meta, inner, ok := splitMeta(name); ok {
		regMu.RLock()
		mf, found := metas[meta]
		regMu.RUnlock()
		if found {
			impl, err := mf(inner, cfg.withDefaults())
			if err != nil {
				return nil, err
			}
			return wrap(name, impl), nil
		}
	}
	return nil, fmt.Errorf("solver: unknown engine %q (registered: %v, meta: %v)",
		name, Engines(), Metas())
}

// wrap adds the registry bookkeeping around an engine. A Reusable impl
// yields a wrapper that is itself Reusable, so reusability survives the
// trip through New/NewWith and the lease pool can see it.
func wrap(name string, impl Solver) Solver {
	n := &named{name: name, impl: impl}
	if _, ok := impl.(Reusable); ok {
		return &reusableNamed{named: *n}
	}
	return n
}

// splitMeta parses "meta(inner)" into its parts. The inner expression
// runs to the final ')', so nested expressions stay intact.
func splitMeta(name string) (meta, inner string, ok bool) {
	open := strings.Index(name, "(")
	if open <= 0 || !strings.HasSuffix(name, ")") {
		return "", "", false
	}
	return name[:open], name[open+1 : len(name)-1], true
}

// named wraps an engine with the bookkeeping common to all of them.
type named struct {
	name string
	impl Solver
}

func (n *named) Solve(ctx context.Context, f *cnf.Formula) (Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{Engine: n.name, Wall: time.Since(start)}, err
	}
	r, err := n.impl.Solve(ctx, f)
	if r.Engine == "" {
		// The portfolio sets Engine to the winning member; everyone else
		// leaves it blank for the wrapper to fill.
		r.Engine = n.name
	}
	r.Wall = time.Since(start)
	if err != nil {
		r.Status = StatusUnknown
	}
	return r, err
}

// reusableNamed is the named wrapper for Reusable engines: same solve
// bookkeeping, plus Reset forwarded to the implementation.
type reusableNamed struct{ named }

func (n *reusableNamed) Reset(f *cnf.Formula) bool {
	return n.impl.(Reusable).Reset(f)
}
