package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// system is one set-up workload: its inputs with ground truth, the
// running program under test, and how to drive it.
type system interface {
	// pass drives the workload for d and returns a record per job sent
	// and the timed wall time; tr records spans when non-nil. Later
	// passes continue the job stream of earlier ones.
	pass(d time.Duration, tr *tracer) ([]*jobRec, time.Duration)
	// solveSpec returns the engine expression and solver config a job
	// ran under, for the per-layer replay.
	solveSpec(r *jobRec) (string, solver.Config)
	// warning says how the run fell short of its design (an input pool
	// used up), or is empty.
	warning() string
	close() error
}

// workload names a workload and how to set it up.
type workload struct {
	name  string
	limit time.Duration // latency limit for slo_frac
	// setup generates the inputs from seed, computes their ground
	// truth, boots the program and warms its caches. dir is a private
	// directory for store files; seconds sizes the input pools.
	setup func(seed uint64, seconds float64, dir string) (system, error)
}

var workloads = []workload{
	{"sampler", 500 * time.Millisecond, setupSampler},
	{"preprocess", 250 * time.Millisecond, setupPreprocess},
	{"fleet-repeat", 50 * time.Millisecond, setupFleet},
}

const (
	// clients is the closed-loop concurrency, sized for a 2-CPU machine.
	clients = 2
	// serviceWorkers is each service's solve-pool size (1 per replica
	// in the fleet, so the fleet also uses 2).
	serviceWorkers = 2
	// jobTimeout bounds any one job; a job that hits it fails.
	jobTimeout = 10 * time.Second
)

// closedLoop runs clients goroutines, each sending its next job as soon
// as its previous one finished, until d has passed. do sends the job
// and fills in its record; next numbers jobs across passes.
func closedLoop(d time.Duration, next *atomic.Int64, do func(r *jobRec)) ([]*jobRec, time.Duration) {
	start := time.Now()
	stop := start.Add(d)
	per := make([][]*jobRec, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev time.Time
			for {
				now := time.Now()
				if !now.Before(stop) {
					return
				}
				r := &jobRec{id: int(next.Add(1)), sent: now}
				if !prev.IsZero() {
					r.lag = now.Sub(prev)
				}
				do(r)
				prev = r.done
				per[c] = append(per[c], r)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var recs []*jobRec
	for _, rs := range per {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	return recs, wall
}

// submit sends one job to an in-process service and records how long
// Submit took; a refusal or a rejected submission finishes the record.
func submit(srv *service.Server, r *jobRec, opts service.SubmitOptions) *service.Job {
	t0 := time.Now()
	job, err := srv.Submit(r.inst.f, opts)
	r.submit = time.Since(t0)
	if err != nil {
		r.err, r.refused, r.done = err, errors.Is(err, service.ErrQueueFull), time.Now()
		return nil
	}
	return job
}

// finish copies a terminal job's snapshot into its record.
func finish(r *jobRec, job *service.Job) {
	snap := job.Snapshot()
	r.submitted, r.started, r.finished = snap.Submitted, snap.Started, snap.Finished
	r.cacheHit, r.res = snap.CacheHit, snap.Result
	if snap.State != service.StateDone {
		r.err = fmt.Errorf("job ended %s: %v", snap.State, snap.Err)
	}
}

// recordInProcess adds the spans of an in-process job: the Submit call,
// and the service's own queue and solve intervals from its snapshot.
func recordInProcess(tr *tracer, r *jobRec) {
	if tr == nil {
		return
	}
	root := tr.add("client.job", r.id, 0, r.sent, r.done)
	tr.add("service.Submit", r.id, root, r.sent, r.sent.Add(r.submit))
	if !r.started.IsZero() {
		tr.add("service.queue", r.id, root, r.submitted, r.started)
		tr.add("service.solve", r.id, root, r.started, r.finished)
	}
}

func shutdown(srv *service.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// --- preprocess --------------------------------------------------------

const (
	// preprocessWindow is how many jobs each client keeps in flight: with
	// 2 clients that is 4 jobs on 2 workers, so every job queues behind
	// another while the load stays a closed loop. An open loop on a
	// 2-vCPU virtual machine let a few hypervisor stalls, queued into
	// bursts, set p99: its spread across ten seeds reached 0.4.
	preprocessWindow = 2
	// preprocessPoolRate sizes the input pool: more distinct inputs per
	// second of run than the service completes.
	preprocessPoolRate = 150
)

type preprocessBench struct {
	srv   *service.Server
	store *verdictstore.Store
	pool  []*instance
	next  atomic.Int64 // next unused pool index
	short atomic.Bool  // the pool ran out before a pass ended
}

// setupPreprocess builds distinct uf20-91 and uf50-218 instances, one
// in three uf20-91 and half of each size planted, enough for seconds of
// the service's full rate, and no two with the same canonical
// fingerprint, so every job misses both cache tiers. The two sizes
// solve in about 5 and 15 ms; an even split would put the median
// latency in the gap between them, where it jumps with every seed.
func setupPreprocess(seed uint64, seconds float64, dir string) (system, error) {
	g := rng.New(rng.Mix(seed, 2))
	b := &preprocessBench{}
	const warm = 16
	want := warm + int(preprocessPoolRate*seconds) + 64
	seen := make(map[string]bool, want)
	for i := 0; len(b.pool) < want; i++ {
		n, m := 50, 218
		if i%3 == 0 {
			n, m = 20, 91
		}
		planted := i%6 >= 3
		f := randomFormula(g, n, m, 3, planted)
		fp := cnf.Canonicalize(f).Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		kind := "random"
		if planted {
			kind = "planted"
		}
		b.pool = append(b.pool, newDecide(fmt.Sprintf("uf%d-%d-%s#%d", n, m, kind, i), f))
	}

	st, err := verdictstore.Open(filepath.Join(dir, "preprocess.nbl"))
	if err != nil {
		return nil, err
	}
	b.store = st
	b.srv = service.NewServer(service.Config{Workers: serviceWorkers, Store: st})
	// Warm the engine pool on inputs the measured passes never send.
	for range warm {
		r := b.take()
		if job := submit(b.srv, r, b.opts()); job != nil {
			<-job.Done()
			finish(r, job)
		}
		if r.err != nil {
			return b, fmt.Errorf("warm-up job %s: %v", r.inst.name, r.err)
		}
	}
	return b, nil
}

// take returns a record for the next unused input, or nil when the
// pool is used up.
func (b *preprocessBench) take() *jobRec {
	i := int(b.next.Add(1)) - 1
	if i >= len(b.pool) {
		b.short.Store(true)
		return nil
	}
	return &jobRec{id: i, inst: b.pool[i], engine: "pre(portfolio)"}
}

// opts leaves the engine to the service default, pre(portfolio), with
// one sampling goroutine for its mc member.
func (b *preprocessBench) opts() service.SubmitOptions {
	return service.SubmitOptions{Timeout: jobTimeout, Solver: solver.Config{Workers: 1}}
}

func (b *preprocessBench) solveSpec(*jobRec) (string, solver.Config) {
	return "pre(portfolio)", b.opts().Solver
}

// pass runs clients goroutines that each keep preprocessWindow jobs in
// flight until d has passed, sending the next job as soon as one of
// theirs finishes.
func (b *preprocessBench) pass(d time.Duration, tr *tracer) ([]*jobRec, time.Duration) {
	type flight struct {
		r   *jobRec
		job *service.Job
	}
	start := time.Now()
	stop := start.Add(d)
	per := make([][]*jobRec, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var open []flight
			var prev time.Time // when this client last saw a job finish
			for {
				for len(open) < preprocessWindow && time.Now().Before(stop) {
					r := b.take()
					if r == nil {
						break
					}
					r.sent = time.Now()
					if !prev.IsZero() {
						r.lag = r.sent.Sub(prev)
					}
					if job := submit(b.srv, r, b.opts()); job != nil {
						open = append(open, flight{r, job})
						continue
					}
					per[c] = append(per[c], r)
					recordInProcess(tr, r)
				}
				if len(open) == 0 {
					return
				}
				i := 0
				if len(open) == 2 {
					select {
					case <-open[0].job.Done():
					case <-open[1].job.Done():
						i = 1
					}
				} else {
					<-open[0].job.Done()
				}
				f := open[i]
				open = append(open[:i], open[i+1:]...)
				f.r.done = time.Now()
				prev = f.r.done
				finish(f.r, f.job)
				per[c] = append(per[c], f.r)
				recordInProcess(tr, f.r)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var recs []*jobRec
	for _, rs := range per {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	return recs, wall
}

func (b *preprocessBench) warning() string {
	if b.short.Load() {
		return fmt.Sprintf("the pool of %d distinct inputs ran out before the pass ended", len(b.pool))
	}
	return ""
}

func (b *preprocessBench) close() error {
	err := shutdown(b.srv)
	return errors.Join(err, b.store.Close())
}

// DIMACS text of f, as a client would send it.
func dimacsBody(f *cnf.Formula) []byte { return []byte(dimacs.WriteString(f, "")) }
