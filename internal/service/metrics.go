package service

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/enginepool"
	"repro/internal/obs"
	"repro/internal/obs/prom"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// metrics is the service's observability state, exposed in Prometheus
// text format on /metrics. Exposition is hand-rolled — the repository
// vendors nothing — through the shared internal/obs/prom layer, so
// any Prometheus scraper ingests it unchanged.
//
// The paper connection: samples_total and samples_per_second surface
// the SNR economics of the NBL engines as live operational signals —
// the per-engine wall-time histograms make the 4^(n·m) cost collapse
// of preprocessed submissions directly visible next to their bare
// counterparts, and the span-fed stage histograms break one solve's
// wall time into queue wait, cache tiers, and pipeline stages.
type metrics struct {
	mu sync.Mutex

	start time.Time

	jobsTotal map[string]int64 // by terminal state
	// taskJobs counts terminal jobs by (task, state), keyed
	// task+"\x00"+state. A separate family from jobsTotal — relabeling
	// the existing one would break every consumer keying on
	// nblserve_jobs_total{state=...}. Cardinality is fixed: 4 tasks ×
	// 3 terminal states.
	taskJobs map[string]int64

	samplesTotal      int64
	solveSecondsTotal float64

	queueWait *prom.Histogram // guarded by mu; fed from queue.wait spans

	// solveHist, stageHist, and cacheTier lock themselves.
	solveHist *prom.HistogramVec // per engine expression
	stageHist *prom.HistogramVec // per span name (pipeline stages, engine checks, pool acquire)
	cacheTier *prom.HistogramVec // per cache tier (lru, store)
}

// histBounds are the wall-time histogram bucket upper bounds in
// seconds: geometric, microsecond reads to the minute-scale solves a
// 4M-sample budget can reach on SATLIB instances.
var histBounds = []float64{0.0005, 0.0025, 0.01, 0.05, 0.25, 1, 5, 25, 120}

// stageBounds extend histBounds downward: a pipeline stage or a warm
// pool acquire can be single-digit microseconds.
var stageBounds = []float64{0.00001, 0.0001, 0.0005, 0.0025, 0.01, 0.05, 0.25, 1, 5, 25}

// tierBounds cover the cache tiers: an LRU probe is sub-microsecond,
// a store probe is a map lookup, a store load can touch disk.
var tierBounds = []float64{0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1}

// queueBounds cover backlog wait: instant claim to minutes behind a
// saturated pool.
var queueBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// maxHistEngines caps the per-engine histogram families: engine
// expressions are client-controlled (metas nest arbitrarily), so an
// unbounded map would let a client cycling distinct expressions grow
// the metrics state and the /metrics document without limit. Overflow
// folds into one "other" series (prom.HistogramVec's cap).
const maxHistEngines = 64

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		jobsTotal: make(map[string]int64),
		taskJobs:  make(map[string]int64),
		queueWait: prom.NewHistogram(queueBounds),
		solveHist: prom.NewHistogramVec("engine", histBounds, maxHistEngines),
		stageHist: prom.NewHistogramVec("stage", stageBounds, maxHistEngines),
		cacheTier: prom.NewHistogramVec("tier", tierBounds, 8),
	}
}

// jobFinished records a terminal state transition plus, for jobs that
// actually ran an engine, the effort spent.
func (m *metrics) jobFinished(state string, engine string, task solver.Task, samples int64, wall time.Duration) {
	m.mu.Lock()
	m.jobsTotal[state]++
	if task == "" {
		task = solver.TaskDecide
	}
	m.taskJobs[string(task)+"\x00"+state]++
	if wall <= 0 && samples == 0 {
		m.mu.Unlock()
		return
	}
	m.samplesTotal += samples
	m.solveSecondsTotal += wall.Seconds()
	m.mu.Unlock()
	m.solveHist.Observe(engine, wall.Seconds())
}

// observeTrace feeds the stage-duration families from a finished
// job's span tree: the same spans that render on /jobs/{id}/trace
// drive the histograms, so the two surfaces cannot disagree about
// where time went.
func (m *metrics) observeTrace(t *obs.TraceJSON) {
	t.Walk(func(s *obs.SpanJSON) {
		secs := float64(s.DurUS) / 1e6
		switch {
		case s.Name == "queue.wait":
			m.mu.Lock()
			m.queueWait.Observe(secs)
			m.mu.Unlock()
		case strings.HasPrefix(s.Name, "cache."):
			m.cacheTier.Observe(strings.TrimPrefix(s.Name, "cache."), secs)
		case strings.HasPrefix(s.Name, "pipeline.") ||
			strings.HasSuffix(s.Name, ".check") ||
			s.Name == "pool.acquire":
			m.stageHist.Observe(s.Name, secs)
		}
	})
}

// gauges carries the point-in-time values sampled outside the metrics
// state at scrape time: the server's queue, the verdict cache, and the
// engine lease pool.
type gauges struct {
	queued, running                                      int64
	cacheHits, cacheMisses, cacheEvictions, cacheEntries int64
	store                                                verdictstore.Stats
	storePresent                                         bool
	pool                                                 enginepool.Stats
	node                                                 string
}

// write emits the exposition document. Queue/running/cache/pool gauges
// are sampled by the caller (they live in the server, cache, and
// pool). The document renders into a buffer under the mutex and hits
// the network after release: every worker's finish() needs this lock,
// and a slow scraper must not be able to stall the solve pool.
func (m *metrics) write(out io.Writer, g gauges) {
	var buf bytes.Buffer
	m.render(&buf, g)
	out.Write(buf.Bytes()) //nolint:errcheck // scraper gone; nothing to do
}

func (m *metrics) render(w *bytes.Buffer, g gauges) {
	queued, running := g.queued, g.running
	hits, misses, evictions, entries := g.cacheHits, g.cacheMisses, g.cacheEvictions, g.cacheEntries
	m.mu.Lock()

	prom.Head(w, "nblserve_up", "gauge", "Whether the service is serving (always 1 on a scrape).")
	fmt.Fprintln(w, "nblserve_up 1")

	if g.node != "" {
		prom.Head(w, "nblserve_node_info", "gauge", "This replica's fleet node id, as a label.")
		fmt.Fprintf(w, "nblserve_node_info{node=%q} 1\n", g.node)
	}

	prom.GaugeFloat(w, "nblserve_uptime_seconds", "Seconds since the service started.",
		time.Since(m.start).Seconds())

	prom.Head(w, "nblserve_jobs_total", "counter", "Jobs finished, by terminal state.")
	states := make([]string, 0, len(m.jobsTotal))
	for s := range m.jobsTotal {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "nblserve_jobs_total{state=%q} %d\n", s, m.jobsTotal[s])
	}

	prom.Head(w, "nblserve_task_jobs_total", "counter", "Jobs finished, by solve task and terminal state.")
	taskKeys := make([]string, 0, len(m.taskJobs))
	for k := range m.taskJobs {
		taskKeys = append(taskKeys, k)
	}
	sort.Strings(taskKeys)
	for _, k := range taskKeys {
		task, state, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(w, "nblserve_task_jobs_total{task=%q,state=%q} %d\n", task, state, m.taskJobs[k])
	}

	prom.Gauge(w, "nblserve_jobs_queued", "Jobs waiting for a worker.", queued)
	prom.Gauge(w, "nblserve_jobs_running", "Jobs currently on a worker.", running)

	prom.Counter(w, "nblserve_samples_total", "Noise/search samples consumed by finished jobs.", m.samplesTotal)
	prom.Head(w, "nblserve_solve_seconds_total", "counter", "Wall time spent solving finished jobs.")
	fmt.Fprintf(w, "nblserve_solve_seconds_total %s\n", prom.FormatFloat(m.solveSecondsTotal))
	rate := 0.0
	if m.solveSecondsTotal > 0 {
		rate = float64(m.samplesTotal) / m.solveSecondsTotal
	}
	prom.GaugeFloat(w, "nblserve_samples_per_second", "Lifetime mean sampling throughput.", rate)

	prom.Counter(w, "nblserve_cache_hits_total", "Verdict-cache hits.", hits)
	prom.Counter(w, "nblserve_cache_misses_total", "Verdict-cache misses.", misses)
	prom.Counter(w, "nblserve_cache_evictions_total", "Verdict-cache LRU evictions.", evictions)
	prom.Gauge(w, "nblserve_cache_entries", "Live verdict-cache entries.", entries)

	// Durable verdict-store tier (only when a store is attached: an
	// absent family reads as "no store", a zero as "store, no traffic").
	if g.storePresent {
		prom.Counter(w, "nblserve_store_hits_total", "Verdict-store (durable tier) hits on LRU misses.", g.store.Hits)
		prom.Counter(w, "nblserve_store_misses_total", "Verdict-store lookups that missed both tiers.", g.store.Misses)
		prom.Counter(w, "nblserve_store_flushes_total", "Verdict records appended (each append is one flushed write).", g.store.Appends)
		prom.Counter(w, "nblserve_store_write_errors_total", "Verdict records that failed to write (the job still succeeds; the verdict stays in the LRU only).", g.store.WriteErrors)
		prom.Gauge(w, "nblserve_store_entries", "Live verdict-store records (loaded + appended, deduplicated).", g.store.Entries)
		prom.Gauge(w, "nblserve_store_torn_bytes", "Bytes dropped as a torn tail when the store was opened.", g.store.TornBytes)
	}

	// Engine lease pool: the warm-hit economics of the shared engine
	// lifecycle. Occupancy label cardinality is bounded by the pool's
	// capacity (idle instances, each with one expression), so the
	// per-expression series cannot grow without limit.
	prom.Counter(w, "nblserve_pool_warm_hits_total", "Engine leases served from the idle pool with warm state intact (banks/buffers for bare engines; the shell itself for meta expressions).", g.pool.Hits)
	prom.Counter(w, "nblserve_pool_cold_misses_total", "Engine leases constructed cold.", g.pool.Misses)
	prom.Counter(w, "nblserve_pool_evictions_total", "Idle engines dropped by the pool's LRU capacity bound.", g.pool.Evictions)
	prom.Gauge(w, "nblserve_pool_capacity", "Idle-instance capacity of the engine lease pool.", int64(g.pool.Capacity))
	prom.Gauge(w, "nblserve_pool_size", "Total idle (warm) engine instances in the pool.", int64(g.pool.Size))
	prom.Head(w, "nblserve_pool_idle", "gauge", "Idle (warm) engine instances in the pool, by engine expression.")
	for _, expr := range g.pool.Expressions() {
		fmt.Fprintf(w, "nblserve_pool_idle{engine=%q} %d\n", expr, g.pool.Occupancy[expr])
	}

	prom.Head(w, "nblserve_queue_wait_seconds", "histogram", "Backlog wait from enqueue to worker claim, fed from queue.wait spans.")
	m.queueWait.Write(w, "nblserve_queue_wait_seconds", "")
	m.mu.Unlock()

	m.cacheTier.Write(w, "nblserve_cache_tier_latency_seconds", "Verdict-cache lookup latency by tier (lru, store), fed from cache spans.")
	m.stageHist.Write(w, "nblserve_stage_duration_seconds", "Per-stage solve time (pipeline stages, engine checks, pool acquire), fed from trace spans.")
	m.solveHist.Write(w, "nblserve_solve_duration_seconds", "Wall time of solves that ran an engine, by engine expression.")
}
