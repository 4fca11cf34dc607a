package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/solver"
)

// jobRec is what the load generator saw of one job.
type jobRec struct {
	id     int
	inst   *instance
	engine string
	sent   time.Time
	done   time.Time     // verdict observed by the client
	submit time.Duration // in-process Submit call; 0 through the router
	lag    time.Duration // client's gap from its last finished job to this send

	// Service-side timestamps; zero when no server took the job.
	submitted, started, finished time.Time

	cacheHit   bool
	refused    bool // ErrQueueFull, or HTTP 503
	res        solver.Result
	equivalent *bool
	err        error
}

// outcome classifies a finished job against the ground truth.
type outcome struct {
	completed bool // a server returned a result without error
	failed    bool // error, refusal, timeout or wrong answer
	decided   bool
	wrong     string
}

func (r *jobRec) outcome() outcome {
	if r.err != nil || r.refused {
		return outcome{failed: true}
	}
	v := r.inst.check(r.res, r.equivalent)
	return outcome{completed: true, failed: v.wrong != "", decided: v.decided, wrong: v.wrong}
}

func (r *jobRec) latency() time.Duration { return r.done.Sub(r.sent) }

// metric is one named value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2e is the end-to-end summary of one pass.
type e2e struct {
	sent, completed, failed, wrong, decided, inSLO int
	wall                                           time.Duration
	latencies                                      []time.Duration // completed jobs, sorted
	wrongLines                                     []string
}

// summarize classifies every job of a pass; limit is the workload's
// latency limit and wall the pass's timed wall time.
func summarize(recs []*jobRec, limit, wall time.Duration, seed uint64) e2e {
	s := e2e{sent: len(recs), wall: wall}
	for _, r := range recs {
		o := r.outcome()
		if o.completed {
			s.completed++
			s.latencies = append(s.latencies, r.latency())
		}
		if o.failed {
			s.failed++
		} else if r.latency() <= limit {
			s.inSLO++
		}
		if o.decided {
			s.decided++
		}
		if o.wrong != "" {
			s.wrong++
			s.wrongLines = append(s.wrongLines, fmt.Sprintf(
				"WRONG job %d seed %d instance %s engine %s task %s: %s",
				r.id, seed, r.inst.name, r.engine, r.inst.task, o.wrong))
		}
	}
	sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
	return s
}

func (s e2e) frac(n int) float64 {
	if s.sent == 0 {
		return 0
	}
	return float64(n) / float64(s.sent)
}

func (s e2e) jobsPerSec() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.completed) / s.wall.Seconds()
}

// metrics returns the end-to-end metrics BENCHMARK.json names.
// failed_frac and wrong_frac are 0 on a correct run, so BENCHMARK.json
// carries their complements, ok_frac and truthful_frac.
func (s e2e) metrics(setup time.Duration, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":        {setup.Seconds(), "s"},
		"jobs_per_s":     {s.jobsPerSec(), "1/s"},
		"latency_p50_ms": {ms(quantile(s.latencies, 0.50)), "ms"},
		"latency_p99_ms": {ms(quantile(s.latencies, 0.99)), "ms"},
		"slo_frac":       {s.frac(s.inSLO), "frac"},
		"decided_frac":   {s.frac(s.decided), "frac"},
		"ok_frac":        {1 - s.frac(s.failed), "frac"},
		"truthful_frac":  {1 - s.frac(s.wrong), "frac"},
		"rss_peak_mb":    {rssMB, "MB"},
	}
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// p is quantile over an unsorted sample (which it sorts).
func p(d []time.Duration, q float64) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return quantile(d, q)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// stealTicks reads the CPU time the hypervisor gave to other guests
// (the steal column of /proc/stat), in clock ticks. A run with much of
// it was measured on a busy host.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(fields[8], 10, 64)
	return v
}

// printTable writes metrics one per line, sorted by name.
func printTable(w io.Writer, title string, m map[string]metric, notes map[string]string) {
	fmt.Fprintf(w, "# %s\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %14.6g %-6s %s\n", k, m[k].Value, m[k].Unit, notes[k])
	}
}
