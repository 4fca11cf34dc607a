package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runShort runs the benchmark in process and returns its stdout and
// parsed last line.
func runShort(t *testing.T, out string, args ...string) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "--seconds", "1", "--out", out), &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	return stdout.String(), res
}

// checkMetrics requires every named metric, with its unit, and nothing
// else.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	for _, spec := range want {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, spec.Name)
		case m.Unit != spec.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, spec.Name, m.Unit, spec.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", what, spec.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(got), len(want))
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks the output contract: every named metric with its unit,
// sent = ok + failed, correct answers, and a span tree whose children
// fit inside their parents.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bench := loadBenchmark(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, wl := range bench.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			_, res := runShort(t, out, "--workload", wl.Name, "--seed", "7", "--trace", "0")
			checkMetrics(t, "trace 0", res.Metrics, bench.EndToEnd)
			ok := res.Metrics["ok_frac"].Value * float64(res.Attempted)
			if res.Attempted < 1 || math.Abs(ok+float64(res.Failed)-float64(res.Attempted)) > 1e-6 {
				t.Errorf("sent %d != ok %.3f + failed %d", res.Attempted, ok, res.Failed)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
			}

			stdout, res := runShort(t, out, "--workload", wl.Name, "--seed", "7", "--trace", "1")
			checkMetrics(t, "trace 1", res.Metrics, bench.PerLayer)
			if !strings.Contains(stdout, `"seed":7`) || !strings.Contains(stdout, `"eval_accel"`) {
				t.Errorf("provenance line missing seed or accel:\n%s", stdout)
			}
			data, err := os.ReadFile(filepath.Join(out, "svcbench-"+wl.Name+"-seed7.spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			layers := make(map[string]bool)
			for _, s := range spans {
				layers[s.layer()] = true
			}
			for _, l := range []string{"client", "service", "dimacs", "cnf", "simplify", "enginepool", "verdictstore", "hyperspace", "noise"} {
				if !layers[l] {
					t.Errorf("no %s span recorded", l)
				}
			}
			if bad := nestingErrors(spans); bad != 0 {
				t.Errorf("%d of %d spans do not fit inside their parent", bad, len(spans))
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sampler", "--trace", "2"},
		{"--workload", "sampler", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.job", Job: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service.queue", Job: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "service.solve", Job: 1, Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "noise.FillBlockAt", Job: 1, Start: 50, End: 60},
	}
	self := selfTimes(spans)
	// client: 100 - union[10,90]; service: 30 + (60 - 10); noise: 10.
	if self["client"] != 20 || self["service"] != 80 || self["noise"] != 10 {
		t.Errorf("self times %v", self)
	}
	if bad := nestingErrors(spans); bad != 0 {
		t.Errorf("nesting errors %d on a valid tree", bad)
	}
	spans[3].End = 95 // child outlives its parent
	if bad := nestingErrors(spans); bad != 1 {
		t.Errorf("nesting errors %d, want 1", bad)
	}
}

// TestPredictionsNameMetrics checks that the prediction table names
// only metrics and workloads BENCHMARK.json defines.
func TestPredictionsNameMetrics(t *testing.T) {
	bench := loadBenchmark(t)
	known := make(map[string]bool)
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		known[m.Name] = true
	}
	for _, w := range bench.Workloads {
		known[w.Name] = true
	}
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ E2E, Workload string }
	var table struct {
		Predictions []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []pair   `json:"moves"`
			Barely       []pair   `json:"barely"`
			NoChange     []pair   `json:"no_change"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Predictions {
		names := row.LayerMetrics
		for _, ps := range [][]pair{row.Moves, row.Barely, row.NoChange} {
			for _, p := range ps {
				names = append(names, p.E2E, p.Workload)
			}
		}
		for _, n := range names {
			if !known[n] {
				t.Errorf("predictions.json names %q, which BENCHMARK.json does not define", n)
			}
		}
	}
}
