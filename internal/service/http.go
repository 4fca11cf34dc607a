// HTTP surface of the solve service. Endpoints:
//
//	POST   /solve          DIMACS body -> job (async by default; ?sync=1 waits)
//	POST   /solve/batch    many DIMACS instances in one body -> array of jobs
//	GET    /jobs           list job snapshots
//	GET    /jobs/{id}      one snapshot; ?wait=2s long-polls for completion
//	GET    /jobs/{id}/events  SSE stream of progress snapshots until terminal
//	DELETE /jobs/{id}      cancel (queued or running)
//	GET    /metrics        Prometheus text exposition
//	GET    /healthz        liveness + basic gauges
//
// POST /solve and /solve/batch query parameters: engine (registry
// expression, e.g. pre(mc)), task (decide | count | weighted-count |
// equivalent; default decide), seed, samples, theta, workers, family,
// alloc, flips, restarts, noise, candidates, members (comma lineup),
// model=1 (model recovery), timeout (Go duration), sync=1 (/solve
// only). Unrecognised parameters are ignored.
//
// task=count and task=weighted-count return the exact model count (or
// clause-cover-weighted count K') as result.count, a decimal string.
// task=equivalent takes TWO DIMACS instances in the body (batch
// syntax), lowers them to a miter via internal/logic, and decides it:
// UNSAT certifies the pair equivalent, SAT means they differ (a model
// restricted to variables 1..n is a distinguishing assignment). It is
// /solve-only; /solve/batch rejects it.
//
// A /solve/batch body is a concatenation of DIMACS documents: each
// "p cnf" problem line starts a new instance, and the SATLIB "%"
// trailer ends one. Every instance fans out through the job manager
// under the shared query parameters; the response is an array with one
// entry per instance, each carrying either the submitted job or that
// instance's own error with the status code a single /solve would have
// returned (400 for a parse failure, 503 for a full queue — per
// instance, so one full-queue rejection does not waste the instances
// already admitted).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/enginepool"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/solver"
)

// maxBodyBytes bounds a DIMACS submission (16 MiB holds every SATLIB
// archive instance with orders of magnitude to spare).
const maxBodyBytes = 16 << 20

// maxSolveWorkers caps the per-job sampling parallelism a client may
// request; the pool already bounds concurrent jobs, this bounds the
// goroutines inside one.
const maxSolveWorkers = 64

// Handler returns the service's HTTP handler. With Config.NodeID set,
// every response carries an X-NBL-Node header naming this replica, so
// a request that reached the node through the fleet router is
// attributable without consulting any logs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /solve/batch", s.handleSolveBatch)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.NodeID == "" {
		return mux
	}
	node := s.cfg.NodeID
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-NBL-Node", node)
		mux.ServeHTTP(w, r)
	})
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	ID     string `json:"id"`
	Engine string `json:"engine"`
	// Task is present for non-decide jobs only, so decide responses are
	// byte-compatible with the pre-task wire form.
	Task      solver.Task    `json:"task,omitempty"`
	State     State          `json:"state"`
	Submitted time.Time      `json:"submitted"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	CacheHit  bool           `json:"cache_hit,omitempty"`
	Progress  *solver.Stats  `json:"progress,omitempty"`
	Result    *solver.Result `json:"result,omitempty"`
	// Equivalent answers a task=equivalent job directly: the miter's
	// UNSAT certifies equivalence, its SAT refutes it. Absent until the
	// verdict is definitive.
	Equivalent *bool  `json:"equivalent,omitempty"`
	Error      string `json:"error,omitempty"`
}

func snapshotJSON(snap Snapshot) jobJSON {
	out := jobJSON{
		ID:        snap.ID,
		Engine:    snap.Engine,
		State:     snap.State,
		Submitted: snap.Submitted,
		CacheHit:  snap.CacheHit,
	}
	if snap.Task != "" && snap.Task != solver.TaskDecide {
		out.Task = snap.Task
	}
	if snap.Task == solver.TaskEquivalent && snap.Result.Status.Definitive() {
		eq := snap.Result.Status == solver.StatusUnsat
		out.Equivalent = &eq
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		out.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		out.Finished = &t
	}
	if snap.State == StateRunning && snap.Progress != (solver.Stats{}) {
		p := snap.Progress
		out.Progress = &p
	}
	if snap.State.Terminal() {
		r := snap.Result
		out.Result = &r
	}
	if snap.Err != nil {
		out.Error = snap.Err.Error()
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// parseSubmitOptions builds the SubmitOptions shared by /solve and
// /solve/batch from the request query.
func parseSubmitOptions(q url.Values) (SubmitOptions, error) {
	opts := SubmitOptions{Engine: q.Get("engine")}
	task, err := solver.ParseTask(q.Get("task"))
	if err != nil {
		return opts, err
	}
	opts.Task = task

	// Numeric knobs are client-controlled; negatives are rejected here
	// rather than trusted to engine defaulting (a negative worker count
	// would reach make() inside the Monte-Carlo sampler), and the
	// sampling parallelism is capped so one request cannot claim
	// unbounded goroutines.
	var parseErr error
	getInt := func(name string) int64 {
		v := q.Get(name)
		if v == "" {
			return 0
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if (err != nil || n < 0) && parseErr == nil {
			parseErr = fmt.Errorf("bad %s %q", name, v)
		}
		return n
	}
	getFloat := func(name string) float64 {
		v := q.Get(name)
		if v == "" {
			return 0
		}
		f, err := strconv.ParseFloat(v, 64)
		// Reject NaN/Inf explicitly: ParseFloat accepts them, NaN slips
		// any sign test, and a NaN theta would turn the SAT comparison
		// permanently false — a wrong definitive UNSAT.
		if (err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0)) && parseErr == nil {
			parseErr = fmt.Errorf("bad %s %q", name, v)
		}
		return f
	}

	getSeed := func() uint64 {
		v := q.Get("seed")
		if v == "" {
			return 0
		}
		// Seeds span the full uint64 range; ParseInt would reject the
		// upper half.
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil && parseErr == nil {
			parseErr = fmt.Errorf("bad seed %q", v)
		}
		return n
	}

	opts.Solver = solver.Config{
		Seed:       getSeed(),
		MaxSamples: getInt("samples"),
		Theta:      getFloat("theta"),
		Workers:    int(getInt("workers")),
		Family:     q.Get("family"),
		Allocation: q.Get("alloc"),
		MaxFlips:   int(getInt("flips")),
		Restarts:   int(getInt("restarts")),
		NoiseP:     getFloat("noise"),
		Candidates: int(getInt("candidates")),
		FindModel:  boolParam(q.Get("model")),
	}
	if members := q.Get("members"); members != "" {
		for _, m := range strings.Split(members, ",") {
			if m = strings.TrimSpace(m); m != "" {
				opts.Solver.Members = append(opts.Solver.Members, m)
			}
		}
	}
	if tv := q.Get("timeout"); tv != "" {
		d, err := time.ParseDuration(tv)
		if err != nil || d < 0 {
			return opts, fmt.Errorf("bad timeout %q", tv)
		}
		opts.Timeout = d
	}
	if parseErr != nil {
		return opts, parseErr
	}
	if opts.Solver.Workers > maxSolveWorkers {
		return opts, fmt.Errorf(
			"workers %d exceeds the per-job cap %d", opts.Solver.Workers, maxSolveWorkers)
	}
	return opts, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts, err := parseSubmitOptions(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A router-stamped trace ID makes this job's spans part of the
	// fleet-level trace instead of starting a fresh one.
	opts.TraceID = r.Header.Get("X-NBL-Trace")

	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var f *cnf.Formula
	if opts.Task == solver.TaskEquivalent {
		f, err = readEquivalencePair(body)
	} else {
		f, err = dimacs.Read(body)
	}
	if err != nil {
		// A truncated-by-cap body surfaces as a read error inside the
		// DIMACS parser; report the cap, not a bogus syntax complaint.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("instance exceeds the %d-byte body limit", maxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}

	job, err := s.Submit(f, opts)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}

	if boolParam(q.Get("sync")) {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// Client went away; the job keeps running for later polls.
			writeJSON(w, http.StatusAccepted, snapshotJSON(job.Snapshot()))
			return
		}
		writeJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, snapshotJSON(job.Snapshot()))
}

// readEquivalencePair reads a two-instance DIMACS body (batch syntax)
// and lowers "are they equivalent?" to the miter decide instance any
// engine can run: SAT of the returned formula refutes equivalence,
// UNSAT certifies it. The miter's variables 1..n are the pair's
// original inputs (logic.EquivalenceCNF), so a recovered model reads
// directly as a distinguishing assignment.
func readEquivalencePair(body io.Reader) (*cnf.Formula, error) {
	chunks, err := dimacs.SplitBatch(body)
	if err != nil {
		return nil, err
	}
	if len(chunks) != 2 {
		return nil, fmt.Errorf(
			"task=equivalent needs exactly 2 DIMACS instances in the body, got %d", len(chunks))
	}
	a, err := dimacs.ReadString(chunks[0])
	if err != nil {
		return nil, fmt.Errorf("instance 1: %w", err)
	}
	b, err := dimacs.ReadString(chunks[1])
	if err != nil {
		return nil, fmt.Errorf("instance 2: %w", err)
	}
	return logic.EquivalenceCNF(a, b)
}

// submitErrorCode maps a Submit failure onto the HTTP status a single
// /solve would answer with; /solve/batch reuses it per instance.
func submitErrorCode(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeSubmitError writes a Submit failure, attaching the remaining
// drain grace as a Retry-After header to shutdown 503s so clients (and
// the fleet router's failover) know when this node is worth retrying.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	s.setRetryAfter(w, err)
	writeError(w, submitErrorCode(err), err)
}

// setRetryAfter adds the Retry-After header for a drain rejection when
// the remaining grace is known.
func (s *Server) setRetryAfter(w http.ResponseWriter, err error) {
	if !errors.Is(err, ErrShuttingDown) {
		return
	}
	if secs, ok := s.RetryAfterSeconds(); ok {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
}

// maxBatchInstances bounds one batch submission; anything larger than
// the queue depth could never be admitted whole anyway.
const maxBatchInstances = 256

// batchItemJSON is one instance's outcome in a /solve/batch response:
// either the submitted job (its id is what the client polls) or the
// instance's own error with the status code a single /solve would have
// returned.
type batchItemJSON struct {
	Index int      `json:"index"`
	Job   *jobJSON `json:"job,omitempty"`
	Error string   `json:"error,omitempty"`
	Code  int      `json:"code,omitempty"`
}

// handleSolveBatch fans one multi-instance DIMACS body out through the
// job manager. Instances are admitted independently: a parse failure
// or full queue marks its own entry and the rest proceed, so the
// response array always lines up index-for-index with the instances in
// the body. The response status is 202 as soon as any instance was
// admitted, otherwise the first failure's code.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	opts, err := parseSubmitOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if opts.Task == solver.TaskEquivalent {
		// A batch is N independent instances; an equivalence check is one
		// question about a pair. The pairing would be ambiguous here.
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("task=equivalent is not supported on /solve/batch; POST the pair to /solve"))
		return
	}
	chunks, err := dimacs.SplitBatch(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch exceeds the %d-byte body limit", maxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(chunks) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch carries no DIMACS instances"))
		return
	}
	if len(chunks) > maxBatchInstances {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch carries %d instances, cap is %d", len(chunks), maxBatchInstances))
		return
	}

	items := make([]batchItemJSON, len(chunks))
	accepted := 0
	for i, chunk := range chunks {
		items[i].Index = i
		f, err := dimacs.ReadString(chunk)
		if err != nil {
			items[i].Error = err.Error()
			items[i].Code = http.StatusBadRequest
			continue
		}
		job, err := s.Submit(f, opts)
		if err != nil {
			items[i].Error = err.Error()
			items[i].Code = submitErrorCode(err)
			// A drain rejection stamps the whole response's Retry-After:
			// the remaining instances will be refused for the same reason.
			s.setRetryAfter(w, err)
			continue
		}
		jj := snapshotJSON(job.Snapshot())
		items[i].Job = &jj
		accepted++
	}

	code := http.StatusAccepted
	if accepted == 0 {
		for _, it := range items {
			if it.Code != 0 {
				code = it.Code
				break
			}
		}
	}
	writeJSON(w, code, items)
}

func boolParam(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = snapshotJSON(j.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if wv := r.URL.Query().Get("wait"); wv != "" {
		d, err := time.ParseDuration(wv)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", wv))
			return
		}
		// Long-poll: return at completion or after the wait window,
		// whichever comes first (the snapshot tells the caller which).
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-job.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	job, err := s.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
}

// handleEvents streams job snapshots as server-sent events: one
// "progress" event per tick while the job runs (carrying the live
// Stats the Monte-Carlo sampler publishes at round boundaries), then a
// final "done" event with the terminal snapshot.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string) bool {
		data, err := json.Marshal(snapshotJSON(job.Snapshot()))
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	if !send("progress") {
		return
	}
	for {
		select {
		case <-job.Done():
			send("done")
			return
		case <-tick.C:
			if !send("progress") {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves a terminal job's span tree. A job still queued
// or running has no completed trace yet; one evicted from the ring by
// newer traffic is gone — both are 404s that say which.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if tj := s.Trace(id); tj != nil {
		writeJSON(w, http.StatusOK, tj)
		return
	}
	if job, err := s.Job(id); err == nil {
		if !job.Snapshot().State.Terminal() {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("job %q has not finished; traces are recorded at completion", id))
			return
		}
		writeError(w, http.StatusNotFound,
			fmt.Errorf("trace for job %q was evicted from the trace ring", id))
		return
	}
	writeError(w, http.StatusNotFound, ErrNoSuchJob)
}

// traceSummaryJSON is one /debug/traces row: enough to pick a trace
// to fetch in full from /jobs/{id}/trace.
type traceSummaryJSON struct {
	TraceID string `json:"trace_id"`
	Job     string `json:"job"`
	Root    string `json:"root,omitempty"`
	DurUS   int64  `json:"dur_us"`
	Spans   int    `json:"spans"`
}

// handleTraces lists recently completed traces, newest first
// (?n= caps the count, default 20).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("n must be a positive integer"))
			return
		}
		n = parsed
	}
	out := make([]traceSummaryJSON, 0, n)
	for _, tj := range s.RecentTraces(n) {
		row := traceSummaryJSON{TraceID: tj.TraceID, Job: tj.Job}
		if len(tj.Spans) > 0 {
			row.Root = tj.Spans[0].Name
			row.DurUS = tj.Spans[0].DurUS
		}
		tj.Walk(func(*obs.SpanJSON) { row.Spans++ })
		out = append(out, row)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var g gauges
	g.queued, g.running = s.Counts()
	g.cacheHits, g.cacheMisses, g.cacheEvictions, g.cacheEntries = s.cache.stats()
	g.store, g.storePresent = s.cache.storeStats()
	g.pool = enginepool.Default.Stats()
	g.node = s.cfg.NodeID
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, g)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"queued":  queued,
		"running": running,
		"engines": solver.Engines(),
		"metas":   solver.Metas(),
	})
}
