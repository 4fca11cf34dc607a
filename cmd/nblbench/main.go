// Command nblbench is the NBL-SAT benchmark runner: it drives the
// sampling engines over a fixed roster of generated and paper instances
// plus any DIMACS files given as arguments, and writes one
// BENCH_<timestamp>.json per invocation. The JSON records, per
// (instance, engine) run, the verdict, wall time, consumed samples, and
// samples/sec, plus a kernel section comparing the scalar Step path
// against the batched StepBlock path — the repository's performance
// trajectory is the series of these files over time.
//
// Every engine is benchmarked twice per instance: bare, and wrapped in
// the preprocess-and-decompose pipeline as pre(<engine>). The paired
// rows carry the pipeline's n·m reduction (nm_before/nm_after and the
// component count), quantifying how much instance the sampler never
// has to see — on decomposable or simplifiable instances pre(mc)
// returns a definitive verdict where bare mc is SNR-bound to UNKNOWN
// at the same budget.
//
// A third section ("pool") pairs warm-vs-cold solves through the
// engine lease pool: the same instance solved twice by one leased
// engine, with a warm_speedup field recording how much of a request
// was construction overhead (bank building, evaluator scratch) that a
// resident service amortizes away on repeated-geometry traffic.
//
// Usage:
//
//	nblbench [flags] [file.cnf ...]
//
// The -tiny flag shrinks budgets and the roster for CI smoke runs. The
// -compare flag turns the run into a regression gate: after writing
// the report it compares every (instance, engine) samples/sec against
// the same key in the given baseline JSON and exits nonzero when any
// rate dropped by more than -compare-tol (default 15%). CI runs the
// tiny smoke with -compare BENCH_baseline.json so a hot-path
// regression fails the build.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/cnf"
	"repro/internal/enginepool"
	"repro/internal/gen"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Report is the top-level BENCH_*.json document.
type Report struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Tiny      bool   `json:"tiny"`
	// CalibrationOpsPerSec is the machine-speed proxy measured by a
	// fixed arithmetic spin at report time. The -compare gate divides
	// every samples/sec by it before comparing, so a baseline recorded
	// on faster or slower hardware still gates code regressions rather
	// than hardware differences.
	CalibrationOpsPerSec float64 `json:"calibration_ops_per_sec"`
	// FillAccel and EvalAccel name the accelerated kernels the binary
	// was built with ("avx2" under the nblavx2 build tag on amd64,
	// "none" otherwise): FillAccel the rng noise-fill backend, EvalAccel
	// the hyperspace block-evaluator row kernels — reports from tagged
	// and untagged builds are distinguishable after the fact.
	FillAccel string      `json:"fill_accel"`
	EvalAccel string      `json:"eval_accel"`
	Kernel    []KernelRun `json:"kernel"`
	Runs      []EngineRun `json:"runs"`
	Pool      []PoolRun   `json:"pool"`
}

// PoolRun is one paired warm-vs-cold measurement through the engine
// lease pool: the same instance solved twice by the same leased
// engine, first cold (pool empty, banks built from scratch) then warm
// (instance reacquired, banks/buffers reused via Reset). WarmSpeedup
// is the cold/warm wall ratio — the per-request construction overhead
// a resident service amortizes away on repeated-geometry traffic.
type PoolRun struct {
	Instance    string  `json:"instance"`
	Vars        int     `json:"vars"`
	Clauses     int     `json:"clauses"`
	Engine      string  `json:"engine"`
	ColdWallNS  int64   `json:"cold_wall_ns"`
	WarmWallNS  int64   `json:"warm_wall_ns"`
	Samples     int64   `json:"samples"`
	WarmSpeedup float64 `json:"warm_speedup"`
	Err         string  `json:"error,omitempty"`
}

// KernelRun compares the scalar and block evaluation kernels on one
// instance geometry, and splits the block path's per-sample cost into
// its two stages: FillNs is the noise fill alone (measured by running
// bank.FillBlockAt over the same blocks without evaluating), EvalNs the
// S_N evaluation share (block total minus fill, floored at zero). The
// split shows which stage an accelerated build actually moved.
type KernelRun struct {
	Instance        string  `json:"instance"`
	Vars            int     `json:"vars"`
	Clauses         int     `json:"clauses"`
	ScalarPerSec    float64 `json:"scalar_samples_per_sec"`
	BlockPerSec     float64 `json:"block_samples_per_sec"`
	BlockSpeedup    float64 `json:"block_speedup"`
	FillNs          float64 `json:"fill_ns"`
	EvalNs          float64 `json:"eval_ns"`
	SamplesMeasured int64   `json:"samples_measured"`
}

// EngineRun is one engine solving one instance. Pipeline rows
// (engine "pre(...)") additionally record the preprocessing n·m
// reduction and the number of variable-disjoint components fanned out.
type EngineRun struct {
	Instance      string  `json:"instance"`
	Vars          int     `json:"vars"`
	Clauses       int     `json:"clauses"`
	Engine        string  `json:"engine"`
	Status        string  `json:"status"`
	WallNS        int64   `json:"wall_ns"`
	Samples       int64   `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// FillAccel/EvalAccel name the kernel backends the engine's hot
	// path ran on (sampling engines only; omitted for search engines).
	FillAccel  string `json:"fill_accel,omitempty"`
	EvalAccel  string `json:"eval_accel,omitempty"`
	NMBefore   int64  `json:"nm_before,omitempty"`
	NMAfter    int64  `json:"nm_after,omitempty"`
	Components int64  `json:"components,omitempty"`
	Err        string `json:"error,omitempty"`
}

type instance struct {
	name string
	f    *cnf.Formula
}

func main() {
	var (
		engines = flag.String("engines", "mc,rtw,sbl",
			"comma-separated engine lineup to benchmark")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		samples = flag.Int64("samples", 400_000, "sample budget per check")
		timeout = flag.Duration("timeout", 2*time.Minute, "wall budget per run")
		outDir  = flag.String("out", ".", "directory for the BENCH_*.json report")
		tiny    = flag.Bool("tiny", false,
			"CI smoke mode: tiny instances and budgets only")
		compare = flag.String("compare", "",
			"baseline BENCH_*.json to gate against: exit nonzero when any "+
				"(instance, engine) samples/sec drops more than -compare-tol")
		compareTol = flag.Float64("compare-tol", 0.15,
			"fractional samples/sec drop tolerated by -compare")
		reps = flag.Int("reps", 3,
			"runs per (instance, engine) row; the best samples/sec is kept "+
				"so the -compare gate sees peak rather than noisy throughput")
	)
	flag.Parse()

	if *tiny {
		*samples = 20_000
	}

	insts := roster(*seed, *tiny)
	for _, path := range flag.Args() {
		f, err := readFile(path)
		if err != nil {
			fatal(err)
		}
		insts = append(insts, instance{name: filepath.Base(path), f: f})
	}

	rep := Report{
		Timestamp:            time.Now().UTC().Format("20060102T150405Z"),
		GoVersion:            runtime.Version(),
		GOOS:                 runtime.GOOS,
		GOARCH:               runtime.GOARCH,
		CPUs:                 runtime.NumCPU(),
		Tiny:                 *tiny,
		CalibrationOpsPerSec: calibrate(),
		FillAccel:            rng.FillAccelName(),
		EvalAccel:            hyperspace.EvalAccelName(),
	}

	// Kernel microbenchmark: scalar vs block samples/sec on the paper's
	// geometry and (full mode) a SATLIB-scale random instance.
	kernelInsts := []instance{{name: "paper-sat-n2m4", f: gen.PaperSAT()}}
	if !*tiny {
		kernelInsts = append(kernelInsts,
			instance{name: "uf20-91", f: gen.RandomKSAT(rng.New(*seed), 20, 91, 3)})
	}
	kernelBudget := int64(200_000)
	if *tiny {
		kernelBudget = 20_000
	}
	for _, in := range kernelInsts {
		kr := kernelBench(in, *seed, kernelBudget)
		rep.Kernel = append(rep.Kernel, kr)
		fmt.Printf("kernel %-16s scalar %12.0f/s  block %12.0f/s  speedup %.2fx  fill %.0fns  eval %.0fns\n",
			in.name, kr.ScalarPerSec, kr.BlockPerSec, kr.BlockSpeedup, kr.FillNs, kr.EvalNs)
	}

	lineup := strings.Split(*engines, ",")
	for _, in := range insts {
		for _, eng := range lineup {
			eng = strings.TrimSpace(eng)
			if eng == "" {
				continue
			}
			// Paired rows: the bare engine, then the same engine behind
			// the preprocess-and-decompose pipeline. The pair quantifies
			// the n·m reduction and any verdict upgrade it buys.
			for _, name := range []string{eng, "pre(" + eng + ")"} {
				run := solveBest(name, in, *seed, *samples, *timeout, *reps)
				rep.Runs = append(rep.Runs, run)
				extra := ""
				if run.NMBefore > 0 {
					extra = fmt.Sprintf("  n·m %d->%d comps=%d",
						run.NMBefore, run.NMAfter, run.Components)
				}
				fmt.Printf("run %-20s %-10s %-8s %10v %12d samples %12.0f/s%s\n",
					in.name, name, run.Status, time.Duration(run.WallNS).Round(time.Microsecond),
					run.Samples, run.SamplesPerSec, extra)
			}
		}
	}

	// Paired warm-vs-cold rows through the engine lease pool: the same
	// instance solved twice by a leased engine quantifies how much of a
	// request is construction overhead that warm reuse amortizes away.
	// Skipped rows: meta expressions (pre(...), portfolio) lease their
	// inner engines from the process-global enginepool.Default — which
	// the runs above already warmed — so a per-rep private pool cannot
	// make their cold measurement honestly cold; non-Reusable engines
	// (cdcl, dpll, walksat) have no warm path at all, and a row for
	// them would just measure two cold constructions.
	for _, in := range insts {
		for _, eng := range lineup {
			eng = strings.TrimSpace(eng)
			if eng == "" || strings.Contains(eng, "(") || eng == "portfolio" ||
				!poolable(eng, *seed) {
				continue
			}
			pr := poolBench(eng, in, *seed, *samples, *timeout, *reps)
			rep.Pool = append(rep.Pool, pr)
			if pr.Err != "" {
				fmt.Printf("pool %-19s %-10s error: %s\n", in.name, eng, pr.Err)
				continue
			}
			fmt.Printf("pool %-19s %-10s cold %10v  warm %10v  speedup %.2fx\n",
				in.name, eng,
				time.Duration(pr.ColdWallNS).Round(time.Microsecond),
				time.Duration(pr.WarmWallNS).Round(time.Microsecond),
				pr.WarmSpeedup)
		}
	}

	path := filepath.Join(*outDir, "BENCH_"+rep.Timestamp+".json")
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)

	if *compare != "" {
		if err := compareBaseline(rep, *compare, *compareTol); err != nil {
			fmt.Fprintln(os.Stderr, "nblbench: bench regression gate FAILED")
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("bench gate: no engine dropped more than %.0f%% vs %s\n",
			*compareTol*100, *compare)
	}
}

// calibrate measures a machine-speed proxy: a fixed SplitMix64-style
// arithmetic spin, timed. Engine samples/sec scales with the same
// scalar pipeline throughput this measures, so rate/calibration is
// roughly hardware-independent and the -compare gate can hold a run on
// a slow CI box against a baseline recorded on a fast workstation. A
// genuine code regression slows the engines but not the spin, so it
// still trips the gate.
func calibrate() float64 {
	const batch = 1 << 20
	var acc uint64 = 0x9e3779b97f4a7c15
	start := time.Now()
	ops := 0
	for time.Since(start) < 50*time.Millisecond {
		for i := 0; i < batch; i++ {
			acc ^= acc >> 30
			acc *= 0xbf58476d1ce4e5b9
			acc ^= acc >> 27
		}
		ops += batch
	}
	if acc == 0 {
		fmt.Println() // defeat dead-code elimination of the spin
	}
	return float64(ops) / time.Since(start).Seconds()
}

// compareBaseline gates the report against a committed baseline: every
// (instance, engine) pair present in both reports must hold at least
// (1 - tol) of its baseline samples/sec, after both sides are divided
// by their report's calibration constant so differing hardware does
// not read as a regression. Rows with errors or zero throughput (e.g.
// preprocessing-proved verdicts that consumed no samples) are skipped
// — they measure verdict logic, not the sampling hot path.
func compareBaseline(rep Report, baselinePath string, tol float64) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	// Normalize both sides when both reports carry a calibration;
	// otherwise (an old baseline) fall back to raw rates.
	curScale, baseScale := 1.0, 1.0
	if rep.CalibrationOpsPerSec > 0 && base.CalibrationOpsPerSec > 0 {
		curScale = rep.CalibrationOpsPerSec
		baseScale = base.CalibrationOpsPerSec
	}
	baseRate := make(map[string]float64, len(base.Runs))
	for _, r := range base.Runs {
		if r.Err == "" && r.SamplesPerSec > 0 {
			baseRate[r.Instance+"|"+r.Engine] = r.SamplesPerSec / baseScale
		}
	}
	var regressions []string
	compared := 0
	for _, r := range rep.Runs {
		b, ok := baseRate[r.Instance+"|"+r.Engine]
		if !ok || r.Err != "" || r.SamplesPerSec <= 0 {
			continue
		}
		compared++
		cur := r.SamplesPerSec / curScale
		if cur < b*(1-tol) {
			regressions = append(regressions, fmt.Sprintf(
				"  %s/%s: normalized %.3g -> %.3g (%.1f%% drop, tolerance %.0f%%)",
				r.Instance, r.Engine, b, cur, (1-cur/b)*100, tol*100))
		}
	}
	if compared == 0 {
		return fmt.Errorf("no comparable rows between this run and %s (different roster or engines?)", baselinePath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d of %d rows regressed more than %.0f%%:\n%s",
			len(regressions), compared, tol*100, strings.Join(regressions, "\n"))
	}
	return nil
}

// roster builds the standing instance set: the paper's worked examples,
// a variable-disjoint union that only the pipeline can decide at
// sampling budgets, plus (full mode) SATLIB-scale random and planted
// 3-SAT.
func roster(seed uint64, tiny bool) []instance {
	insts := []instance{
		{name: "paper-sat", f: gen.PaperSAT()},
		{name: "paper-unsat", f: gen.PaperUNSAT()},
		{name: "paper-ex5", f: gen.PaperExample5()},
		// Three disjoint copies of Example 6: n·m = 36 is far beyond the
		// Monte-Carlo engine's SNR reach, but each component is n·m = 4.
		{name: "disjoint-ex6x3", f: gen.DisjointUnion(
			gen.PaperExample6(), gen.PaperExample6(), gen.PaperExample6())},
	}
	if tiny {
		return insts
	}
	g := rng.New(seed)
	insts = append(insts, instance{name: "uf20-91", f: gen.RandomKSAT(g, 20, 91, 3)})
	planted, _ := gen.PlantedKSAT(g, 20, 91, 3)
	insts = append(insts, instance{name: "planted20-91", f: planted})
	return insts
}

// kernelBench measures Step vs StepBlock throughput on one instance.
// Both paths draw from identically seeded banks, so they do the same
// arithmetic on the same streams.
func kernelBench(in instance, seed uint64, budget int64) KernelRun {
	n, m := in.f.NumVars, in.f.NumClauses()

	scalar := hyperspace.New(in.f, noise.NewBank(noise.UniformUnit, seed, n, m))
	start := time.Now()
	var sink float64
	for i := int64(0); i < budget; i++ {
		sink += scalar.Step().S
	}
	scalarSec := float64(budget) / time.Since(start).Seconds()

	block := hyperspace.New(in.f, noise.NewBank(noise.UniformUnit, seed, n, m))
	buf := make([]float64, hyperspace.BlockSize(n, m))
	start = time.Now()
	for done := int64(0); done < budget; {
		k := int64(len(buf))
		if rem := budget - done; rem < k {
			k = rem
		}
		block.StepBlock(buf[:k])
		sink += buf[0]
		done += k
	}
	blockSec := float64(budget) / time.Since(start).Seconds()

	// Fill-only pass over the same block schedule: the bank work the
	// block path above also performs, measured without the evaluation.
	// The difference attributes the block path's per-sample cost to its
	// two stages.
	fillBank := noise.NewBank(noise.UniformUnit, seed, n, m)
	pos := make([]float64, n*m*len(buf))
	neg := make([]float64, n*m*len(buf))
	start = time.Now()
	for done := int64(0); done < budget; {
		k := int64(len(buf))
		if rem := budget - done; rem < k {
			k = rem
		}
		fillBank.FillBlockAt(uint64(done), int(k), pos[:n*m*int(k)], neg[:n*m*int(k)])
		sink += pos[0]
		done += k
	}
	fillNs := time.Since(start).Seconds() * 1e9 / float64(budget)
	_ = sink

	evalNs := 1e9/blockSec - fillNs
	if evalNs < 0 {
		evalNs = 0
	}

	return KernelRun{
		Instance:        in.name,
		Vars:            n,
		Clauses:         m,
		ScalarPerSec:    scalarSec,
		BlockPerSec:     blockSec,
		BlockSpeedup:    blockSec / scalarSec,
		FillNs:          fillNs,
		EvalNs:          evalNs,
		SamplesMeasured: budget,
	}
}

// poolable reports whether the engine expression constructs a
// solver.Reusable instance — the precondition for a meaningful
// warm-vs-cold pair. One throwaway adapter construction answers it.
func poolable(engine string, seed uint64) bool {
	s, err := solver.NewWith(engine, solver.Config{Seed: seed})
	if err != nil {
		return true // let poolBench surface the construction error as a row
	}
	_, reusable := s.(solver.Reusable)
	return reusable
}

// poolBench measures one paired warm-vs-cold row: per rep, a fresh
// pool solves the instance cold (acquire constructs, banks build
// lazily inside the solve) and then warm (reacquire resets the same
// instance in place), with the full acquire+solve+release span timed.
// The minimum wall per temperature across reps is kept, mirroring
// solveBest's peak-throughput policy.
func poolBench(engine string, in instance, seed uint64, samples int64, timeout time.Duration, reps int) PoolRun {
	run := PoolRun{
		Instance: in.name,
		Vars:     in.f.NumVars,
		Clauses:  in.f.NumClauses(),
		Engine:   engine,
	}
	cfg := solver.Config{Seed: seed, MaxSamples: samples}
	solve := func(p *enginepool.Pool) (time.Duration, int64, error) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		start := time.Now()
		lease, err := p.Acquire(engine, cfg, in.f)
		if err != nil {
			return 0, 0, err
		}
		res, err := lease.Solve(ctx)
		lease.Release()
		return time.Since(start), res.Stats.Samples, err
	}
	if reps < 1 {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		p := enginepool.New(4)
		cold, n, err := solve(p)
		if err != nil {
			run.Err = err.Error()
			return run
		}
		warm, _, err := solve(p)
		if err != nil {
			run.Err = err.Error()
			return run
		}
		if r == 0 || cold.Nanoseconds() < run.ColdWallNS {
			run.ColdWallNS = cold.Nanoseconds()
		}
		if r == 0 || warm.Nanoseconds() < run.WarmWallNS {
			run.WarmWallNS = warm.Nanoseconds()
		}
		run.Samples = n
	}
	if run.WarmWallNS > 0 {
		run.WarmSpeedup = float64(run.ColdWallNS) / float64(run.WarmWallNS)
	}
	return run
}

// solveBest runs the (instance, engine) row reps times and keeps the
// fastest by samples/sec: throughput is what the regression gate
// tracks, and the peak of a few runs is far less noisy than a single
// shot (the first run also pays one-time warmup like page faults and
// lazily sized scratch).
func solveBest(engine string, in instance, seed uint64, samples int64, timeout time.Duration, reps int) EngineRun {
	if reps < 1 {
		reps = 1
	}
	best := solveOne(engine, in, seed, samples, timeout)
	for r := 1; r < reps; r++ {
		next := solveOne(engine, in, seed, samples, timeout)
		if next.SamplesPerSec > best.SamplesPerSec {
			best = next
		}
	}
	return best
}

// solveOne runs one engine over one instance through the registry.
func solveOne(engine string, in instance, seed uint64, samples int64, timeout time.Duration) EngineRun {
	run := EngineRun{
		Instance: in.name,
		Vars:     in.f.NumVars,
		Clauses:  in.f.NumClauses(),
		Engine:   engine,
	}
	s, err := repro.New(engine,
		repro.WithSeed(seed),
		repro.WithMaxSamples(samples),
	)
	if err != nil {
		run.Err = err.Error()
		return run
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := s.Solve(ctx, in.f)
	run.Status = res.Status.String()
	run.WallNS = res.Wall.Nanoseconds()
	run.Samples = res.Stats.Samples
	run.FillAccel = res.Stats.FillAccel
	run.EvalAccel = res.Stats.EvalAccel
	run.NMBefore = res.Stats.NMBefore
	run.NMAfter = res.Stats.NMAfter
	run.Components = res.Stats.Components
	if res.Wall > 0 {
		run.SamplesPerSec = float64(res.Stats.Samples) / res.Wall.Seconds()
	}
	if err != nil {
		run.Err = err.Error()
	}
	return run
}

func readFile(path string) (*cnf.Formula, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return repro.ReadDIMACS(file)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nblbench:", err)
	os.Exit(1)
}
