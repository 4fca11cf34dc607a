package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// fleet is a router over service replicas, each with its own verdict
// store, all serving HTTP on loopback inside this process.
type fleet struct {
	srvs    []*service.Server
	stores  []*verdictstore.Store
	https   []*http.Server
	serving sync.WaitGroup
	base    string // router URL
}

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (fl *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	fl.https = append(fl.https, hs)
	fl.serving.Add(1)
	go func() {
		defer fl.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

func startFleet(dir string, replicas, workers int) (*fleet, error) {
	fl := &fleet{}
	var nodes []router.Node
	for i := range replicas {
		name := fmt.Sprintf("n%d", i)
		st, err := verdictstore.Open(filepath.Join(dir, name+".nbl"))
		if err != nil {
			return fl, err
		}
		fl.stores = append(fl.stores, st)
		srv := service.NewServer(service.Config{Workers: workers, Store: st, NodeID: name})
		fl.srvs = append(fl.srvs, srv)
		url, err := fl.serve(srv.Handler())
		if err != nil {
			return fl, err
		}
		nodes = append(nodes, router.Node{Name: name, URL: url})
	}
	rt, err := router.New(router.Config{Nodes: nodes})
	if err != nil {
		return fl, err
	}
	fl.base, err = fl.serve(rt.Handler())
	return fl, err
}

// close stops the HTTP servers, drains the replicas and closes their
// stores.
func (fl *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range fl.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	fl.serving.Wait()
	for _, srv := range fl.srvs {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, st := range fl.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// --- fleet-repeat ------------------------------------------------------

// Task mix and fresh share of fleet-repeat jobs.
const (
	countShare  = 0.10
	equivShare  = 0.10
	freshShare  = 0.10
	renamings   = 8 // renamed twins per working-set entry
	maxFleetRPS = 2500.0
)

var fleetTasks = [...]solver.Task{solver.TaskDecide, solver.TaskCount, solver.TaskEquivalent}

// fleetSizes is each task's variable range. Equivalence pairs stay at
// n = 4..6: the miter of an n = 8 pair already takes tens of
// milliseconds to preprocess, which would make a fresh pair an engine
// workload rather than a routing one.
var fleetSizes = [...][2]int{{8, 20}, {8, 14}, {4, 6}}

type fleetBench struct {
	fl     *fleet
	client *http.Client
	seed   uint64
	// work[t] lists the working set of task t, each entry its renamed
	// twins; fresh[t] holds inputs the fleet has not seen.
	work      [3][][]*instance
	fresh     [3][]*instance
	freshNext [3]atomic.Int64
	exhausted atomic.Int64 // fresh draws that found the pool used up
	next      atomic.Int64
}

// fleetInstance draws one input of task t over n variables.
func fleetInstance(g *rng.Xoshiro256, t int, n int, name string) (*instance, error) {
	switch fleetTasks[t] {
	case solver.TaskCount:
		in := newCount(name, randomFormula(g, n, 3*n, 3, g.Bool()))
		in.body = dimacsBody(in.f)
		return in, nil
	case solver.TaskEquivalent:
		a, b := equivPair(g, n)
		return newEquivalent(name, a, b)
	}
	in := newDecide(name, randomFormula(g, n, (426*n+50)/100, 3, g.Bool()))
	in.body = dimacsBody(in.f)
	return in, nil
}

// setupFleet builds a working set (64 decide, 8 count and 8
// equivalence entries, each with renamed twins) and fresh pools sized
// for seconds of the fastest expected traffic, boots the fleet and
// warms every replica's cache and store with the working set.
func setupFleet(seed uint64, seconds float64, dir string) (system, error) {
	g := rng.New(rng.Mix(seed, 4))
	b := &fleetBench{seed: seed}
	sizes := [3]int{64, 8, 8}
	shares := [3]float64{1 - countShare - equivShare, countShare, equivShare}
	for t := range fleetTasks {
		lo, hi := fleetSizes[t][0], fleetSizes[t][1]
		for i := range sizes[t] {
			base, err := fleetInstance(g, t, lo+g.Intn(hi-lo+1), fmt.Sprintf("work-%s#%d", fleetTasks[t], i))
			if err != nil {
				return nil, err
			}
			twins := []*instance{base}
			for len(twins) < renamings {
				tw, err := renamedTwin(g, base)
				if err != nil {
					return nil, err
				}
				twins = append(twins, tw)
			}
			b.work[t] = append(b.work[t], twins)
		}
		nFresh := int(maxFleetRPS*seconds*freshShare*shares[t]) + 16
		for i := range nFresh {
			in, err := fleetInstance(g, t, lo+g.Intn(hi-lo+1), fmt.Sprintf("fresh-%s#%d", fleetTasks[t], i))
			if err != nil {
				return nil, err
			}
			b.fresh[t] = append(b.fresh[t], in)
		}
	}

	fl, err := startFleet(dir, 2, 1)
	b.fl = fl
	if err != nil {
		return b, err
	}
	b.client = &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
	}
	// Warm: solve every working-set entry once, so its twins hit.
	for t := range b.work {
		for _, twins := range b.work[t] {
			r := &jobRec{inst: twins[0]}
			b.post(r)
			if o := r.outcome(); o.failed {
				return b, fmt.Errorf("warm-up job %s: %v %s", r.inst.name, r.err, o.wrong)
			}
		}
	}
	return b, nil
}

// renamedTwin returns a renaming of base with its own ground truth; an
// equivalence pair is renamed as a pair, so the miter the service
// builds is a renaming of the original miter.
func renamedTwin(g *rng.Xoshiro256, base *instance) (*instance, error) {
	name := base.name + "~"
	switch base.task {
	case solver.TaskEquivalent:
		a, b := renamePair(g, base.pair[0], base.pair[1])
		return newEquivalent(name, a, b)
	case solver.TaskCount:
		in := newCount(name, rename(g, base.f, true))
		in.body = dimacsBody(in.f)
		return in, nil
	}
	in := newDecide(name, rename(g, base.f, true))
	in.body = dimacsBody(in.f)
	return in, nil
}

// jobJSON is the part of the service's job JSON the benchmark reads.
type jobJSON struct {
	State      string         `json:"state"`
	Submitted  time.Time      `json:"submitted"`
	Started    *time.Time     `json:"started"`
	Finished   *time.Time     `json:"finished"`
	CacheHit   bool           `json:"cache_hit"`
	Result     *solver.Result `json:"result"`
	Equivalent *bool          `json:"equivalent"`
	Error      string         `json:"error"`
}

// post sends one synchronous solve through the router and fills in the
// record from the reply.
func (b *fleetBench) post(r *jobRec) {
	url := b.fl.base + "/solve?sync=1"
	if t := r.inst.task; t != solver.TaskDecide {
		url += "&task=" + string(t)
	}
	r.sent = time.Now()
	resp, err := b.client.Post(url, "text/plain", bytes.NewReader(r.inst.body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.done = time.Now()
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		r.refused = true
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	var j jobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		r.err = fmt.Errorf("bad job JSON: %v", err)
		return
	}
	if j.State != string(service.StateDone) || j.Result == nil || j.Started == nil || j.Finished == nil {
		r.err = fmt.Errorf("job ended %s: %s", j.State, j.Error)
		return
	}
	r.submitted, r.started, r.finished = j.Submitted, *j.Started, *j.Finished
	r.cacheHit, r.res, r.equivalent = j.CacheHit, *j.Result, j.Equivalent
}

// pick chooses job i's input from a stream seeded by (seed, i): its
// task by the mix, then a fresh input or a renamed twin from the
// working set.
func (b *fleetBench) pick(i int) *instance {
	g := rng.New(rng.Mix(b.seed, 5, uint64(i)))
	t, u := 0, g.Float64()
	switch {
	case u < equivShare:
		t = 2
	case u < equivShare+countShare:
		t = 1
	}
	if g.Float64() < freshShare {
		if k := int(b.freshNext[t].Add(1)) - 1; k < len(b.fresh[t]) {
			return b.fresh[t][k]
		}
		b.exhausted.Add(1)
	}
	twins := b.work[t][g.Intn(len(b.work[t]))]
	return twins[g.Intn(len(twins))]
}

func (b *fleetBench) pass(d time.Duration, tr *tracer) ([]*jobRec, time.Duration) {
	return closedLoop(d, &b.next, func(r *jobRec) {
		r.inst = b.pick(r.id)
		b.post(r)
		if tr == nil {
			return
		}
		root := tr.add("client.job", r.id, 0, r.sent, r.done)
		post := tr.add("router.post", r.id, root, r.sent, r.done)
		if !r.started.IsZero() {
			tr.add("service.queue", r.id, post, r.submitted, r.started)
			tr.add("service.solve", r.id, post, r.started, r.finished)
		}
	})
}

func (b *fleetBench) solveSpec(r *jobRec) (string, solver.Config) {
	if r.inst.task == solver.TaskCount {
		return "pre(count)", solver.Config{Task: solver.TaskCount}
	}
	return "pre(portfolio)", solver.Config{}
}

func (b *fleetBench) warning() string {
	if n := b.exhausted.Load(); n > 0 {
		return fmt.Sprintf("%d fresh draws found the fresh pool used up and sent a repeat instead", n)
	}
	return ""
}

func (b *fleetBench) close() error {
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.fl == nil {
		return nil
	}
	return b.fl.close()
}

// failovers reads the router's failover counter from its /metrics, or
// returns -1 when it cannot.
func (b *fleetBench) failovers() float64 {
	resp, err := b.client.Get(b.fl.base + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "nblrouter_failovers_total "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return -1
}
