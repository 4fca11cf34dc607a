package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/enginepool"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/simplify"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// replayStats collects the per-call timings of the per-layer replay.
type replayStats struct {
	jobs                                 int
	read, canon, simp, decomp, cdclSolve []time.Duration
	acquire, poolSolve, pipeSolve        []time.Duration
	get, put                             []time.Duration
	warm, leases                         int
	nmBefore, nmAfter                    int64
	puts                                 int
	putBytes                             int64
	fill, step                           time.Duration
	samples                              int64
	// estFillEval estimates the fill and evaluation time of the replayed
	// jobs' own samples (their measured per-sample cost times the
	// samples the job drew); estSolve is those jobs' solve time.
	estFillEval, estSolve time.Duration
}

// stepCells bounds the noise cells (samples × n·m) the StepBlockAt
// replay evaluates per job, so uf50-218 costs about as much as a tiny
// instance.
const stepCells = 2_000_000

// replay sends each job's input through the layers one call at a time
// in this goroutine, with a span around every call: DIMACS parsing,
// canonicalization, preprocessing and decomposition, cdcl on the
// simplified formula, an engine lease and solve under the job's own
// engine, a verdict-store lookup and write, and block evaluation with
// the timing sample source. It stops after budget.
func replay(recs []*jobRec, sys system, tr *tracer, dir string, budget time.Duration) (replayStats, error) {
	var st replayStats
	store, err := verdictstore.Open(filepath.Join(dir, "replay.nbl"))
	if err != nil {
		return st, err
	}
	defer store.Close()
	stop := time.Now().Add(budget)
	for _, r := range recs {
		if time.Now().After(stop) {
			break
		}
		if r.err != nil {
			continue
		}
		if err := replayJob(&st, r, sys, tr, store); err != nil {
			return st, err
		}
	}
	return st, nil
}

func replayJob(st *replayStats, r *jobRec, sys system, tr *tracer, store *verdictstore.Store) error {
	ctx := context.Background()
	st.jobs++
	job := r.id
	root := tr.begin("replay.job", job, 0)
	defer tr.end(root)
	timed := func(name string, fn func()) time.Duration {
		id := tr.begin(name, job, root)
		start := time.Now()
		fn()
		d := time.Since(start)
		tr.end(id)
		return d
	}

	text := r.inst.body
	if r.inst.task == solver.TaskEquivalent || text == nil {
		text = dimacsBody(r.inst.f)
	}
	var f *cnf.Formula
	var err error
	st.read = append(st.read, timed("dimacs.Read", func() { f, err = dimacs.Read(bytes.NewReader(text)) }))
	if err != nil {
		return err
	}
	var canon *cnf.Canonical
	st.canon = append(st.canon, timed("cnf.Canonicalize", func() { canon = cnf.Canonicalize(f) }))
	var pre *simplify.Result
	st.simp = append(st.simp, timed("simplify.Simplify", func() { pre = simplify.Simplify(f, simplify.Options{}) }))
	st.nmBefore += int64(pre.Stats.NMBefore())
	st.nmAfter += int64(pre.Stats.NMAfter())
	if !pre.ProvedUnsat {
		st.decomp = append(st.decomp, timed("simplify.Decompose", func() { simplify.Decompose(pre.F) }))
		st.cdclSolve = append(st.cdclSolve, timed("cdcl.Solve", func() { _, _, err = cdcl.New(pre.F).SolveCtx(ctx) }))
		if err != nil {
			return err
		}
	}

	expr, cfg := sys.solveSpec(r)
	var lease *enginepool.Lease
	st.acquire = append(st.acquire, timed("enginepool.Acquire", func() { lease, err = enginepool.Default.Acquire(expr, cfg, f) }))
	if err != nil {
		return err
	}
	st.leases++
	if lease.Warm() {
		st.warm++
	}
	var res solver.Result
	solveDur := timed("enginepool.Solve", func() { res, err = lease.Solve(ctx) })
	lease.Release()
	if err != nil {
		return err
	}
	st.poolSolve = append(st.poolSolve, solveDur)
	if strings.HasPrefix(expr, "pre(") {
		st.pipeSolve = append(st.pipeSolve, solveDur)
	}

	task := string(r.inst.task)
	st.get = append(st.get, timed("verdictstore.Get", func() { store.GetTask(task, expr, cfg.Key(), canon.Fingerprint()) }))
	if res.Status.Definitive() {
		rec := verdictstore.Record{Engine: expr, ConfigKey: cfg.Key(), Fingerprint: canon.Fingerprint(), Result: res}
		if r.inst.task != solver.TaskDecide {
			rec.Task = task
		}
		if res.Assignment != nil {
			rec.Result.Assignment = canon.ToCanonical(res.Assignment)
		}
		before, appends := fileSize(store.Path()), store.Stats().Appends
		st.put = append(st.put, timed("verdictstore.Put", func() { err = store.Put(rec) }))
		if err != nil {
			return err
		}
		if store.Stats().Appends > appends {
			st.puts++
			st.putBytes += fileSize(store.Path()) - before
		}
	}

	if f.NumVars > 0 && f.NumClauses() > 0 {
		step, samples := stepBlocks(st, f, tr, job, root)
		if !r.cacheHit && r.engine != "rtw" && r.res.Stats.Samples > 0 {
			st.estFillEval += time.Duration(float64(step) / float64(samples) * float64(r.res.Stats.Samples))
			st.estSolve += r.finished.Sub(r.started)
		}
	}
	return nil
}

// stepBlocks evaluates S_N blocks of f through the timing source, each
// StepBlockAt a child span of the job's replay root, and returns the
// time the calls took and the samples they evaluated.
func stepBlocks(st *replayStats, f *cnf.Formula, tr *tracer, job, root int) (time.Duration, int64) {
	n, m := f.NumVars, f.NumClauses()
	src := &timingSource{SampleSource: noise.NewBank(noise.UniformUnit, uint64(job)+1, n, m), tr: tr, job: job}
	ev := hyperspace.New(f, src)
	k := hyperspace.BlockSize(n, m)
	out := make([]float64, k)
	var step time.Duration
	var samples int64
	for b := range max(1, stepCells/(k*n*m)) {
		fill, total := src.stepBlock(ev, uint64(b*k), out, root)
		st.fill += fill
		step += total
		samples += int64(k)
	}
	st.step += step
	st.samples += samples
	return step, samples
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
