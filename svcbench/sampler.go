package main

import (
	"fmt"
	"math/big"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/solver"
)

const (
	// samplerBudget is the fixed per-check sample budget of sampler jobs.
	samplerBudget = 100_000
	// samplerPoolRate sizes the input pools: more jobs per second of run
	// than the service completes.
	samplerPoolRate = 150
)

// samplerClass is one cell of the sampler's job mix: an input stratum
// run on one engine, with its whole-number share of every cycle of the
// job schedule.
type samplerClass struct {
	engine string
	weight int
	pool   []*instance
}

type samplerBench struct {
	srv     *service.Server
	classes []*samplerClass
	// cycle is one period of the job schedule: job i takes class
	// cycle[i%len(cycle)] and that class's occ[i%len(cycle)]-th slot of
	// the period. Any run covers the classes in their exact shares, to
	// within one job per class, whatever its length.
	cycle, occ []int
	next       atomic.Int64
}

// n2Models is the distribution of the model count of a random 2-CNF
// with n = 2 and m = 4, in 64ths: each clause rules out one of the four
// assignments uniformly, so the count is 4 minus the distinct
// assignments four draws rule out.
var n2Models = [4]int{6, 36, 21, 1}

// setupSampler builds the paper's examples plus random 2- and 3-CNF
// with n = 2..5 and m = 2n, run three jobs in four on mc and one on
// rtw. About half the jobs are at n = 2, the only size whose SNR a
// 100k budget clears, split by model count in the generator's own
// proportions; the rest are spread evenly over n = 3..5, where the
// honest answer is UNKNOWN. Stratifying by model count and scheduling
// the classes in fixed shares keeps the decided share and the latency
// mix of one seed's run close to any other seed's.
func setupSampler(seed uint64, seconds float64, _ string) (system, error) {
	g := rng.New(rng.Mix(seed, 1))
	b := &samplerBench{}
	add := func(weight int, pool []*instance) {
		b.classes = append(b.classes,
			&samplerClass{engine: "mc", weight: 3 * weight, pool: pool},
			&samplerClass{engine: "rtw", weight: weight, pool: pool})
	}
	const total = 4 * (2 + 64 + 6*12) // weights below, mc and rtw together
	size := func(weight int) int { return int(seconds*samplerPoolRate)*4*weight/total + 1 }

	var paper []*instance
	for i, f := range []*cnf.Formula{
		gen.PaperSAT(), gen.PaperUNSAT(), gen.PaperExample5(), gen.PaperExample6(), gen.PaperExample7(),
	} {
		paper = append(paper, newDecide(fmt.Sprintf("paper-%d", i), f))
	}
	add(2, paper)
	for models, w := range n2Models {
		var pool []*instance
		for i := 0; len(pool) < size(w); i++ {
			f := gen.RandomKSAT(g, 2, 4, 2)
			if count.Count(f).Cmp(big.NewInt(int64(models))) == 0 {
				pool = append(pool, newDecide(fmt.Sprintf("rand2-n2-m4-models%d#%d", models, i), f))
			}
		}
		add(w, pool)
	}
	for n := 3; n <= 5; n++ {
		for k := 2; k <= 3; k++ {
			var pool []*instance
			for i := range size(12) {
				pool = append(pool, newDecide(fmt.Sprintf("rand%d-n%d-m%d#%d", k, n, 2*n, i), gen.RandomKSAT(g, n, 2*n, k)))
			}
			add(12, pool)
		}
	}
	b.cycle, b.occ = schedule(b.classes)

	// No cache tier: every job must reach its engine.
	b.srv = service.NewServer(service.Config{Workers: serviceWorkers, CacheEntries: -1})
	// Warm the engine pool: one job per (engine, geometry).
	seen := make(map[string]bool)
	for _, c := range b.classes {
		for _, in := range c.pool {
			key := fmt.Sprint(c.engine, in.f.NumVars, in.f.NumClauses())
			if seen[key] {
				continue
			}
			seen[key] = true
			r := &jobRec{inst: in, engine: c.engine}
			if job := submit(b.srv, r, b.opts(r.engine)); job != nil {
				<-job.Done()
				finish(r, job)
			}
			if r.err != nil {
				return b, fmt.Errorf("warm-up job %s on %s: %v", in.name, c.engine, r.err)
			}
		}
	}
	return b, nil
}

// schedule interleaves the classes by smooth weighted round robin: one
// period holds each class weight times, spread as evenly as possible.
// occ[j] counts the earlier slots of the same class in the period.
func schedule(classes []*samplerClass) (cycle, occ []int) {
	total := 0
	for _, c := range classes {
		total += c.weight
	}
	cur := make([]int, len(classes))
	seen := make([]int, len(classes))
	for range total {
		best := 0
		for i, c := range classes {
			cur[i] += c.weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		cycle = append(cycle, best)
		occ = append(occ, seen[best])
		seen[best]++
	}
	return cycle, occ
}

// job returns job i's class and input.
func (b *samplerBench) job(i int) (*samplerClass, *instance) {
	j := i % len(b.cycle)
	c := b.classes[b.cycle[j]]
	k := (i/len(b.cycle))*c.weight + b.occ[j]
	return c, c.pool[k%len(c.pool)]
}

func (b *samplerBench) opts(engine string) service.SubmitOptions {
	return service.SubmitOptions{Engine: engine, Timeout: jobTimeout, Solver: b.config()}
}

// config is the solver config of every sampler job: a fixed budget and
// one sampling goroutine per job, so two jobs use the 2 CPUs.
func (b *samplerBench) config() solver.Config {
	return solver.Config{MaxSamples: samplerBudget, Workers: 1}
}

func (b *samplerBench) pass(d time.Duration, tr *tracer) ([]*jobRec, time.Duration) {
	return closedLoop(d, &b.next, func(r *jobRec) {
		c, in := b.job(r.id)
		r.inst, r.engine = in, c.engine
		if job := submit(b.srv, r, b.opts(r.engine)); job != nil {
			<-job.Done()
			r.done = time.Now()
			finish(r, job)
		}
		recordInProcess(tr, r)
	})
}

func (b *samplerBench) solveSpec(r *jobRec) (string, solver.Config) { return r.engine, b.config() }

// warning is always empty: the sampler cycles its pools, which is
// harmless with no cache tier.
func (b *samplerBench) warning() string { return "" }

func (b *samplerBench) close() error { return shutdown(b.srv) }
