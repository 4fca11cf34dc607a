package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hyperspace"
)

// span is one timed interval recorded around a call the benchmark makes
// into a layer's public functions. Times are nanoseconds since the
// tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name up to its first dot ("simplify.Simplify" is
// the simplify layer).
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how the untraced passes run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span starting now and returns its ID for end.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, job, parent, now, now)
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now.Sub(t.epoch).Nanoseconds()
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// nestingErrors counts spans that do not fit inside their parent, or
// whose parent is missing or belongs to another job.
func nestingErrors(spans []span) int {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	bad := 0
	for _, s := range spans {
		if s.End < s.Start {
			bad++
			continue
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Job != s.Job || s.Start < p.Start || s.End > p.End {
			bad++
		}
	}
	return bad
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each span its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		out[s.layer()] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// timingSource wraps a sample source and times every FillBlockAt with
// two clock reads, so StepBlockAt's time splits into fill (inside the
// call) and evaluation (the rest of the call). When tr is set each fill
// is also recorded as a child span of the current StepBlockAt span.
type timingSource struct {
	hyperspace.SampleSource
	fill   time.Duration
	tr     *tracer
	job    int
	starts []time.Time
	ends   []time.Time
}

func (s *timingSource) FillBlockAt(base uint64, k int, pos, neg []float64) {
	start := time.Now()
	s.SampleSource.FillBlockAt(base, k, pos, neg)
	end := time.Now()
	s.fill += end.Sub(start)
	if s.tr != nil {
		s.starts = append(s.starts, start)
		s.ends = append(s.ends, end)
	}
}

// stepBlock runs one StepBlockAt under a span with its fills as
// children, and returns the call's fill and total durations.
func (s *timingSource) stepBlock(ev *hyperspace.Evaluator, base uint64, out []float64, parent int) (fill, total time.Duration) {
	s.fill = 0
	s.starts, s.ends = s.starts[:0], s.ends[:0]
	id := s.tr.begin("hyperspace.StepBlockAt", s.job, parent)
	start := time.Now()
	ev.StepBlockAt(base, out)
	total = time.Since(start)
	s.tr.end(id)
	for i := range s.starts {
		s.tr.add("noise.FillBlockAt", s.job, id, s.starts[i], s.ends[i])
	}
	return s.fill, total
}
