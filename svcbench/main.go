// Command svcbench is the service-level benchmark of the NBL-SAT solve
// service. It drives the real in-process service, or a real router in
// front of two service replicas on loopback, with a seeded workload,
// checks every answer against ground truth computed at set-up, and
// prints end-to-end metrics by name with their units. A traced run
// (--trace 1) instead reports per-layer metrics, from spans the
// benchmark records around its own calls into each layer.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	svcbench --workload sampler|preprocess|fleet-repeat --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/enginepool"
	"repro/internal/hyperspace"
	"repro/internal/noise"

	// Link every engine into the registry.
	_ "repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupRuns is how many times a trace-0 run sets its workload up; it
// reports the median as setup_s and measures on the last one.
const setupRuns = 3

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies the build and machine a run measured, so runs
// from different builds are never compared silently.
func provenance(wl string, seed uint64, seconds float64, trace bool) map[string]any {
	return map[string]any{
		"workload":   wl,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"fill_accel": noise.FillAccelKernel(noise.UniformUnit, noise.StreamV2),
		"eval_accel": hyperspace.EvalAccelName(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"host_mops":  hostMops(),
	}
}

// hostMops times a fixed integer loop that touches none of the
// program, in millions of iterations per second. It moves only with
// the host's speed, so comparing it across runs separates a slower
// host from a slower build.
func hostMops() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for range iters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	hostSink = x
	return iters / time.Since(start).Seconds() / 1e6
}

// hostSink keeps the calibration loop from being optimized away.
var hostSink uint64

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sampler, preprocess or fleet-repeat")
	seed := fs.Uint64("seed", 1, "workload seed; the inputs are a function of it")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for store files and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "svcbench: need --workload sampler|preprocess|fleet-repeat, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "svcbench-run-")
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	prov := provenance(wl.name, *seed, *seconds, *trace == 1)
	steal0, start := stealTicks(), time.Now()
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		spans := filepath.Join(*out, fmt.Sprintf("svcbench-%s-seed%d.spans.json", wl.name, *seed))
		res, err = traced(stdout, wl, *seed, *seconds, d, dir, spans)
	} else {
		res, err = untraced(stdout, wl, *seed, *seconds, d, dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	// Clock ticks are 1/100 s on Linux.
	prov["steal_frac"] = float64(stealTicks()-steal0) / 100 / time.Since(start).Seconds() / float64(runtime.NumCPU())
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "# provenance %s\n", pj)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setUp sets the workload up n times, each in a fresh directory, keeps
// the last system and returns the set-up times.
func setUp(wl *workload, seed uint64, seconds float64, dir string, n int) (system, []time.Duration, error) {
	var times []time.Duration
	for i := range n {
		sub := filepath.Join(dir, "setup"+strconv.Itoa(i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		sys, err := wl.setup(seed, seconds, sub)
		times = append(times, time.Since(start))
		if err != nil {
			if sys != nil {
				err = errors.Join(err, sys.close())
			}
			return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		if i == n-1 {
			return sys, times, nil
		}
		if err := sys.close(); err != nil {
			return nil, nil, err
		}
		// Free the discarded set-up before the next, so rss_peak_mb
		// reflects one live set-up rather than garbage-collector timing.
		runtime.GC()
	}
	return nil, nil, errors.New("no set-up")
}

func median(d []time.Duration) time.Duration { return p(append([]time.Duration(nil), d...), 0.5) }

// untraced is a trace-0 run: set up setupRuns times, measure one pass
// and report the end-to-end metrics.
func untraced(w io.Writer, wl *workload, seed uint64, seconds float64, d time.Duration, dir string) (result, error) {
	sys, setups, err := setUp(wl, seed, seconds, dir, setupRuns)
	if err != nil {
		return result{}, err
	}
	recs, wall := sys.pass(d, nil)
	if msg := sys.warning(); msg != "" {
		fmt.Fprintln(w, "warning:", msg)
	}
	if err := sys.close(); err != nil {
		return result{}, err
	}
	s := summarize(recs, wl.limit, wall, seed)
	m := s.metrics(median(setups), rssPeakMB())
	for _, l := range s.wrongLines {
		fmt.Fprintln(w, l)
	}
	printTable(w, fmt.Sprintf("%s seed %d: end-to-end", wl.name, seed), m, e2eNotes(s, wl.limit, setups))
	fmt.Fprintf(w, "failed_frac %g frac (%d of %d sent)\nwrong_frac %g frac (%d of %d sent)\n",
		s.frac(s.failed), s.failed, s.sent, s.frac(s.wrong), s.wrong, s.sent)
	return result{Correct: s.wrong == 0, Attempted: s.sent, Failed: s.failed, Metrics: m}, nil
}

func e2eNotes(s e2e, limit time.Duration, setups []time.Duration) map[string]string {
	n := fmt.Sprintf("(n=%d completed, %d beyond p99)", len(s.latencies), len(s.latencies)-int(0.99*float64(len(s.latencies))+0.999))
	return map[string]string{
		"setup_s":        fmt.Sprintf("(median of %d set-ups: %v)", len(setups), setups),
		"latency_p50_ms": n,
		"latency_p99_ms": n,
		"jobs_per_s":     fmt.Sprintf("(%d completed in %v)", s.completed, s.wall.Round(time.Millisecond)),
		"slo_frac":       fmt.Sprintf("(%d of %d sent correct within %v)", s.inSLO, s.sent, limit),
		"decided_frac":   fmt.Sprintf("(%d of %d sent)", s.decided, s.sent),
		"ok_frac":        "(1 - failed_frac)",
		"truthful_frac":  "(1 - wrong_frac)",
	}
}

// runtimeSample reads the Go runtime's cumulative allocation and CPU
// counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// traced is a trace-1 run: one set-up, untraced and traced passes of
// half the time each (their difference is the tracing overhead), then
// the per-layer replay of the traced pass's inputs.
func traced(w io.Writer, wl *workload, seed uint64, seconds float64, d time.Duration, dir, spansPath string) (result, error) {
	sys, _, err := setUp(wl, seed, seconds, dir, 1)
	if err != nil {
		return result{}, err
	}
	// Untraced and traced slices alternate, so a drift over the run
	// (a growing job table, a host getting busier) falls on both sides
	// of the tracing-overhead comparison alike.
	const slices = 8
	tr := newTracer()
	var recs0, recs1 []*jobRec
	var wall0, wall1 time.Duration
	var alloc, gcCPU, totalCPU float64
	var poolHits, poolMisses int64
	for i := range slices {
		if i%2 == 1 {
			recs, wall := sys.pass(d/slices, tr)
			recs1, wall1 = append(recs1, recs...), wall1+wall
			continue
		}
		rt0, pool0 := readRuntime(), enginepool.Default.Stats()
		recs, wall := sys.pass(d/slices, nil)
		rt1, pool1 := readRuntime(), enginepool.Default.Stats()
		recs0, wall0 = append(recs0, recs...), wall0+wall
		alloc += rt1.allocBytes - rt0.allocBytes
		gcCPU += rt1.gcCPU - rt0.gcCPU
		totalCPU += rt1.totalCPU - rt0.totalCPU
		poolHits += pool1.Hits - pool0.Hits
		poolMisses += pool1.Misses - pool0.Misses
	}
	s0 := summarize(recs0, wl.limit, wall0, seed)
	s1 := summarize(recs1, wl.limit, wall1, seed)

	rs, err := replay(spread(recs1, 200), sys, tr, dir, d/2)
	var failovers float64
	if fb, ok := sys.(*fleetBench); ok {
		failovers = fb.failovers()
	}
	if err := errors.Join(err, sys.close(), tr.write(spansPath)); err != nil {
		return result{}, err
	}

	m := layerMetrics(recs1, rs, tr.spans)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("router.failover_count", failovers, "count")
	jobs0 := max(1, s0.sent)
	set("go.alloc_kb_per_job", alloc/1024/float64(jobs0), "KB")
	set("go.gc_cpu_frac", ratio(gcCPU, totalCPU), "frac")
	set("enginepool.warm_frac", ratio(float64(poolHits), float64(poolHits+poolMisses)), "frac")
	lags := make([]time.Duration, 0, len(recs0))
	for _, r := range recs0 {
		lags = append(lags, r.lag)
	}
	set("loadgen.lag_p99_ms", ms(p(lags, 0.99)), "ms")
	set("trace.latency_p50_delta_ms", ms(quantile(s1.latencies, 0.5))-ms(quantile(s0.latencies, 0.5)), "ms")
	set("trace.jobs_per_s_delta", s1.jobsPerSec()-s0.jobsPerSec(), "1/s")

	for i, s := range []e2e{s0, s1} {
		for _, l := range s.wrongLines {
			fmt.Fprintln(w, l)
		}
		// A traced run sets up once and holds spans in memory, so its
		// set-up time and peak memory are not reported.
		m := s.metrics(0, 0)
		delete(m, "setup_s")
		delete(m, "rss_peak_mb")
		printTable(w, fmt.Sprintf("%s seed %d: %s half", wl.name, seed, []string{"untraced", "traced"}[i]), m, e2eNotes(s, wl.limit, nil))
	}
	printTable(w, fmt.Sprintf("%s seed %d: per layer (replayed %d jobs; spans in %s)", wl.name, seed, rs.jobs, spansPath), m, nil)
	if msg := sys.warning(); msg != "" {
		fmt.Fprintln(w, "warning:", msg)
	}
	return result{
		Correct:   s0.wrong+s1.wrong == 0,
		Attempted: s0.sent + s1.sent,
		Failed:    s0.failed + s1.failed,
		Metrics:   m,
	}, nil
}

// spread picks up to n records evenly from recs.
func spread(recs []*jobRec, n int) []*jobRec {
	if len(recs) <= n {
		return recs
	}
	out := make([]*jobRec, 0, n)
	for i := range n {
		out = append(out, recs[i*len(recs)/n])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfLayers are the layers whose self time the traced run reports.
// client, router and service spans come from the live traced pass, the
// rest from the replay.
var selfLayers = []string{
	"client", "router", "service",
	"dimacs", "cnf", "simplify", "cdcl", "enginepool", "verdictstore", "hyperspace", "noise",
}

// layerMetrics computes the per-layer metrics from the traced pass's
// job records, the replay and the spans.
func layerMetrics(recs []*jobRec, rs replayStats, spans []span) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var submits, waits, solves, forwards []time.Duration
	var hits, refused, completed, coreJobs int
	var coreSamples, rtwSamples int64
	var coreSolve, rtwSolve, solveSum, latSum time.Duration
	for _, r := range recs {
		if r.submit > 0 {
			submits = append(submits, r.submit)
		}
		if r.refused {
			refused++
		}
		if r.err != nil {
			continue
		}
		completed++
		latSum += r.latency()
		if r.submit == 0 { // through the router
			forwards = append(forwards, r.done.Sub(r.sent)-r.finished.Sub(r.submitted))
		}
		if r.cacheHit {
			hits++
			continue
		}
		solve := r.finished.Sub(r.started)
		waits = append(waits, r.started.Sub(r.submitted))
		solves = append(solves, solve)
		solveSum += solve
		if r.engine == "rtw" {
			rtwSamples += r.res.Stats.Samples
			rtwSolve += solve
		} else {
			coreJobs++
			coreSamples += r.res.Stats.Samples
			coreSolve += solve
		}
	}
	set("service.submit_us_p50", us(p(submits, 0.5)), "us")
	set("service.queue_wait_ms_p50", ms(p(waits, 0.5)), "ms")
	set("service.queue_wait_ms_p99", ms(p(waits, 0.99)), "ms")
	set("service.solve_ms_p50", ms(p(solves, 0.5)), "ms")
	set("service.cache_hit_frac", ratio(float64(hits), float64(completed)), "frac")
	set("service.rejected_frac", ratio(float64(refused), float64(len(recs))), "frac")
	set("service.engine_share", ratio(solveSum.Seconds(), latSum.Seconds()), "frac")
	set("router.forward_ms_p50", ms(p(forwards, 0.5)), "ms")
	set("core.samples_per_job", ratio(float64(coreSamples), float64(coreJobs)), "count")
	set("core.samples_per_s", ratio(float64(coreSamples), coreSolve.Seconds()), "1/s")
	set("rtw.samples_per_s", ratio(float64(rtwSamples), rtwSolve.Seconds()), "1/s")

	set("dimacs.read_us_p50", us(p(rs.read, 0.5)), "us")
	set("cnf.canonicalize_us_p50", us(p(rs.canon, 0.5)), "us")
	set("simplify.simplify_ms_p50", ms(p(rs.simp, 0.5)), "ms")
	set("simplify.decompose_us_p50", us(p(rs.decomp, 0.5)), "us")
	set("simplify.nm_kept_frac", ratio(float64(rs.nmAfter), float64(rs.nmBefore)), "frac")
	set("pipeline.solve_ms_p50", ms(p(rs.pipeSolve, 0.5)), "ms")
	set("cdcl.solve_ms_p50", ms(p(rs.cdclSolve, 0.5)), "ms")
	set("enginepool.acquire_us_p50", us(p(rs.acquire, 0.5)), "us")
	set("verdictstore.get_us_p50", us(p(rs.get, 0.5)), "us")
	set("verdictstore.put_us_p50", us(p(rs.put, 0.5)), "us")
	set("verdictstore.bytes_per_put", ratio(float64(rs.putBytes), float64(rs.puts)), "B")
	set("noise.fill_ns_per_sample", ratio(float64(rs.fill.Nanoseconds()), float64(rs.samples)), "ns")
	set("hyperspace.eval_ns_per_sample", ratio(float64((rs.step-rs.fill).Nanoseconds()), float64(rs.samples)), "ns")
	set("core.fill_eval_share", ratio(rs.estFillEval.Seconds(), rs.estSolve.Seconds()), "frac")

	self := selfTimes(spans)
	for _, layer := range selfLayers {
		jobs := rs.jobs
		if layer == "client" || layer == "router" || layer == "service" {
			jobs = len(recs)
		}
		set("self."+layer+"_ms_per_job", ratio(ms(self[layer]), float64(jobs)), "ms")
	}
	return m
}
