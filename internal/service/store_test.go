package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

func openStore(t *testing.T, path string) *verdictstore.Store {
	t.Helper()
	vs, err := verdictstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vs.Close() })
	return vs
}

// TestStoreTierSurvivesRestart is the restart story the store exists
// for: a definitive verdict earned by one server incarnation is
// replayed — bit-identically, without re-solving — by a fresh server
// over the same store file, whose LRU starts empty.
func TestStoreTierSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.nbl")
	vs1 := openStore(t, path)

	s1 := newTestServer(t, Config{Workers: 1, Store: vs1})
	before := echoCalls.Load()
	job, err := s1.Submit(testFormula(), SubmitOptions{Engine: "svc-echo"})
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, job)
	if first.State != StateDone || first.Result.Status != solver.StatusSat {
		t.Fatalf("first solve: %+v", first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := vs1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new store handle over the same file, a
	// brand-new server with an empty LRU.
	vs2 := openStore(t, path)
	if vs2.Len() != 1 {
		t.Fatalf("store reloaded %d verdicts, want 1", vs2.Len())
	}
	s2 := newTestServer(t, Config{Workers: 1, Store: vs2})
	job2, err := s2.Submit(testFormula(), SubmitOptions{Engine: "svc-echo"})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, job2)
	if !snap.CacheHit {
		t.Fatalf("restarted server did not hit the store: %+v", snap)
	}
	if got := echoCalls.Load(); got != before+1 {
		t.Fatalf("engine ran %d times, want 1 (store hit must not re-solve)", got-before)
	}
	// The replay is verbatim: status, stats, wall, winning engine all
	// from the first solve, and the model still satisfies.
	if snap.Result.Status != first.Result.Status ||
		snap.Result.Stats != first.Result.Stats ||
		snap.Result.Wall != first.Result.Wall ||
		snap.Result.Engine != first.Result.Engine {
		t.Fatalf("store replay drifted:\nfirst %+v\nhit   %+v", first.Result, snap.Result)
	}
	if snap.Result.Assignment == nil || !snap.Result.Assignment.Satisfies(testFormula()) {
		t.Fatal("store-replayed model does not satisfy the formula")
	}
	if st := vs2.Stats(); st.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", st.Hits)
	}
}

// TestStoreHitsAcrossRenaming: the store keys on the canonical
// fingerprint, so a renamed twin submitted to a fresh server over the
// shipped store file replays the verdict with the model translated
// into the twin's variable space.
func TestStoreHitsAcrossRenaming(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.nbl")
	vs := openStore(t, path)
	s := newTestServer(t, Config{Workers: 1, CacheEntries: -1, Store: vs})

	// CacheEntries < 0 disables the LRU: every hit below is forced
	// through the durable tier (store-only mode).
	f := testFormula() // clauses over x1..x3
	job, err := s.Submit(f, SubmitOptions{Engine: "svc-echo"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	// The twin renames x1->x3, x2->x1, x3->x2.
	twin := cnf.FromClauses([]int{3, 1}, []int{1, 2}, []int{2})
	job2, err := s.Submit(twin, SubmitOptions{Engine: "svc-echo"})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, job2)
	if !snap.CacheHit {
		t.Fatalf("renamed twin missed the store: %+v", snap)
	}
	if snap.Result.Assignment == nil || !snap.Result.Assignment.Satisfies(twin) {
		t.Fatalf("translated model does not satisfy the twin: %v", snap.Result.Assignment)
	}
	if st := vs.Stats(); st.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", st.Hits)
	}
}

// TestStoreNeverAdmitsUnknown: an UNKNOWN verdict must not reach the
// durable tier any more than the LRU.
func TestStoreNeverAdmitsUnknown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.nbl")
	vs := openStore(t, path)
	s := newTestServer(t, Config{Workers: 1, Store: vs})
	job, err := s.Submit(testFormula(), SubmitOptions{Engine: "svc-unknown"})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, job); snap.Result.Status != solver.StatusUnknown {
		t.Fatalf("svc-unknown returned %v", snap.Result.Status)
	}
	if vs.Len() != 0 {
		t.Fatalf("UNKNOWN landed in the store: %d entries", vs.Len())
	}
}

// TestDrain503CarriesRetryAfter pins the handler side of the drain
// contract: once Shutdown begins with a deadline, a rejected /solve
// answers 503 with a Retry-After of the remaining grace seconds.
func TestDrain503CarriesRetryAfter(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1})

	// Park a job on the single worker so Shutdown has something to
	// drain and stays in the draining state.
	g := newGate(4242)
	job, err := s.Submit(testFormula(), SubmitOptions{
		Engine: "svc-gate", Solver: solver.Config{Seed: 4242},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	const grace = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	shutdownDone := make(chan struct{})
	go func() {
		s.Shutdown(ctx)
		close(shutdownDone)
	}()
	// Wait for intake to actually stop (Shutdown flips it under the
	// same lock RetryAfterSeconds reads).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.RetryAfterSeconds(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never began draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/solve?engine=svc-echo", "text/plain",
		strings.NewReader("p cnf 1 1\n1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain submit: HTTP %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 || secs > int(grace/time.Second) {
		t.Fatalf("Retry-After %d outside (0, %d]", secs, int(grace/time.Second))
	}

	close(g.release)
	waitDone(t, job)
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the gate released")
	}
}

// TestNodeIDHeaderAndMetric: with Config.NodeID set every response
// carries X-NBL-Node, and /metrics exports the node as a label.
func TestNodeIDHeaderAndMetric(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, NodeID: "n7"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-NBL-Node"); got != "n7" {
		t.Fatalf("X-NBL-Node = %q, want n7", got)
	}
	code, body := getMetrics(t, ts)
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if !strings.Contains(body, `nblserve_node_info{node="n7"} 1`) {
		t.Fatalf("metrics missing node_info:\n%s", body)
	}
}

// TestStoreMetricsFamilies: the store counters appear on /metrics
// exactly when a store is attached.
func TestStoreMetricsFamilies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.nbl")
	vs := openStore(t, path)
	s, ts := newHTTPServer(t, Config{Workers: 1, Store: vs})

	job, err := s.Submit(testFormula(), SubmitOptions{Engine: "svc-echo"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	_, body := getMetrics(t, ts)
	for _, want := range []string{
		"nblserve_store_hits_total 0",
		"nblserve_store_misses_total 1",
		"nblserve_store_flushes_total 1",
		"nblserve_store_entries 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// And absent without a store.
	_, ts2 := newHTTPServer(t, Config{Workers: 1})
	_, body2 := getMetrics(t, ts2)
	if strings.Contains(body2, "nblserve_store_") {
		t.Error("store families exported without a store attached")
	}
}

// TestStoreWriteErrorCounted: a verdict-store write that fails (here a
// closed backing file, standing in for a full disk) must not fail the
// job — it finishes done with its verdict — and must show on the
// store's WriteErrors counter and its /metrics family.
func TestStoreWriteErrorCounted(t *testing.T) {
	vs := openStore(t, filepath.Join(t.TempDir(), "verdicts.nbl"))
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts := newHTTPServer(t, Config{Workers: 1, Store: vs})

	job, err := s.Submit(testFormula(), SubmitOptions{Engine: "svc-echo"})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, job)
	if snap.State != StateDone || snap.Result.Status != solver.StatusSat {
		t.Fatalf("job with a failing store write: %+v", snap)
	}
	if got := vs.Stats().WriteErrors; got != 1 {
		t.Errorf("store WriteErrors = %d, want 1", got)
	}
	if _, body := getMetrics(t, ts); !strings.Contains(body, "nblserve_store_write_errors_total 1") {
		t.Errorf("metrics missing the write-error count:\n%s", body)
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}
