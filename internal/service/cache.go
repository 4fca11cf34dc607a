package service

import (
	"container/list"
	"sync"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// verdictCache is the service's LRU verdict cache. Keys are
// (engine expression, solver config, canonical formula fingerprint):
// the fingerprint deduplicates renamed/reordered-literal resubmissions
// of one clause set (see cnf.Canonicalize), while the engine and
// config keep every entry a faithful replay of a solve the requester's
// own parameters would have run — hit responses return the first
// solve's Result verbatim, stats and wall time included.
//
// Correctness argument: only definitive verdicts are stored. SAT and
// UNSAT are properties of the clause set, invariant under the variable
// renaming the fingerprint mods out, so replaying them for an
// equivalent formula is sound (models are carried in canonical variable
// space and translated through each requester's own renaming). The
// config belongs in the key because the statistical engines'
// "definitive" is confidence-parameterized: a SAT decided at theta=0.1
// with a 1k budget is a far weaker claim than one at theta=10 with
// 4M samples, and replaying the former to the latter would launder a
// client's lax confidence choice into everyone else's answers (it also
// keeps model-recovering and model-less entries distinct).
// UNKNOWN is different in kind: it is a statement about one run — a
// budget ran out, a context was cancelled, an SNR gate refused to
// certify — not about the formula. A later submission with a higher
// budget, a different engine, or plain different luck can legitimately
// decide the instance, so caching UNKNOWN would turn a transient
// shortfall into a sticky wrong answer. Store never admits it.
//
// The cache is optionally two-tiered: an LRU miss consults the durable
// verdict store (internal/verdictstore) and, on a hit there, promotes
// the record into the LRU. Puts write through to both tiers. The store
// shares the LRU's key composition and its UNKNOWN exclusion, so the
// correctness argument above covers both tiers; what the store adds is
// survival across process restarts (and snapshot-shipping between
// fleet nodes). Counter accounting: hits counts LRU hits, the store's
// own counters count tier-2 lookups, and misses counts lookups that
// missed *both* tiers — so hits + store-hits + misses partitions the
// lookups.
type verdictCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	store   *verdictstore.Store // optional durable tier; nil = LRU only

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	res   solver.Result  // Assignment stripped; replayed verbatim otherwise
	model cnf.Assignment // canonical-space model, nil when the solve produced none
}

// newVerdictCache returns a cache holding up to capacity entries over
// an optional durable store tier; capacity <= 0 disables the LRU
// (lookups fall straight through to the store, which may itself be
// nil, in which case every lookup misses and stores drop).
func newVerdictCache(capacity int, store *verdictstore.Store) *verdictCache {
	return &verdictCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		store:   store,
	}
}

// cacheKey composes the LRU key. It delegates to the store tier's
// TaskKey so the two tiers agree on what "the same solve" means: a
// decide task yields the legacy three-part key (pre-task cache
// identities replay unchanged), any other task prefixes it.
func cacheKey(task solver.Task, engine, cfg, fingerprint string) string {
	return verdictstore.TaskKey(string(task), engine, cfg, fingerprint)
}

// enabled reports whether any tier stores anything at all (it gates
// whether Submit bothers to canonicalize).
func (c *verdictCache) enabled() bool { return c.cap > 0 || c.store != nil }

// get returns the cached Result for (engine, config, canonical
// formula), with the stored model translated into the requester's
// variable space. An LRU miss falls through to the durable store; a
// store hit is promoted into the LRU on its way out. Each probed tier
// records a hit-tagged child span under sp (nil sp: untraced).
func (c *verdictCache) get(sp *obs.Span, task solver.Task, engine, cfg string, canon *cnf.Canonical) (solver.Result, bool) {
	if !c.enabled() {
		return solver.Result{}, false
	}
	key := cacheKey(task, engine, cfg, canon.Fingerprint())
	lru := sp.StartChild("cache.lru")
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.entries[key]; found {
		e := el.Value.(*cacheEntry)
		c.hits++
		c.order.MoveToFront(el)
		res := e.res
		res.Assignment = canon.FromCanonical(e.model)
		lru.SetAttr("hit", "true")
		lru.Finish()
		return res, true
	}
	lru.SetAttr("hit", "false")
	lru.Finish()
	if c.store != nil {
		st := sp.StartChild("cache.store")
		if rec, ok := c.store.GetTask(string(task), engine, cfg, canon.Fingerprint()); ok {
			e := &cacheEntry{key: key, res: rec.Result, model: rec.Result.Assignment}
			e.res.Assignment = nil
			c.insertLocked(key, e)
			res := e.res
			res.Assignment = canon.FromCanonical(e.model)
			st.SetAttr("hit", "true")
			st.Finish()
			return res, true
		}
		st.SetAttr("hit", "false")
		st.Finish()
	}
	c.misses++
	return solver.Result{}, false
}

// put stores a definitive result in both tiers. UNKNOWN (or an errored
// solve — the caller never offers one) is rejected: see the type
// comment.
func (c *verdictCache) put(task solver.Task, engine, cfg string, canon *cnf.Canonical, res solver.Result) {
	if !c.enabled() || !res.Status.Definitive() {
		return
	}
	key := cacheKey(task, engine, cfg, canon.Fingerprint())
	e := &cacheEntry{key: key, res: res, model: canon.ToCanonical(res.Assignment)}
	e.res.Assignment = nil
	c.mu.Lock()
	c.insertLocked(key, e)
	c.mu.Unlock()
	if c.store != nil {
		storeRes := e.res
		storeRes.Assignment = e.model
		// The record's Task field stays empty for decide so the framed
		// bytes match the pre-task record format exactly.
		recTask := string(task)
		if recTask == string(solver.TaskDecide) {
			recTask = ""
		}
		// Best-effort write-through: a full disk must not fail the job
		// whose verdict was just earned — the LRU still has it, and the
		// next process can re-earn it. The store counts the failure
		// (Stats.WriteErrors, exported on /metrics), so dropping the
		// error here does not hide it.
		_ = c.store.Put(verdictstore.Record{
			Engine: engine, ConfigKey: cfg, Fingerprint: canon.Fingerprint(),
			Task: recTask, Result: storeRes,
		})
	}
}

// insertLocked installs e under key in the LRU tier (a no-op when the
// LRU is disabled). Caller holds c.mu.
func (c *verdictCache) insertLocked(key string, e *cacheEntry) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value = e
		return
	}
	c.entries[key] = c.order.PushFront(e)
	for len(c.entries) > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// stats returns (hits, misses, evictions, live entries).
func (c *verdictCache) stats() (hits, misses, evictions, entries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, int64(len(c.entries))
}

// storeStats returns the durable tier's counters and whether a store
// is attached at all.
func (c *verdictCache) storeStats() (verdictstore.Stats, bool) {
	if c.store == nil {
		return verdictstore.Stats{}, false
	}
	return c.store.Stats(), true
}
