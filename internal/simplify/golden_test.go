package simplify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/rng"
)

// goldenOptions are the option sets the golden digests are pinned
// under: the default (every pass) and the count pipeline's model-count
// safe subset.
var goldenOptions = []struct {
	name string
	opts Options
}{
	{"all", Options{}},
	{"count", Options{DisablePure: true, DisableBVE: true}},
}

// goldenDigests pins a digest of the whole Result for every golden
// input under every golden option set. Preprocessing output feeds
// pre(mc) noise streams, cache keys and stored verdicts, so a change in
// any pass's output (clause order included) must show up here; a pure
// speed change must leave every digest as it is.
var goldenDigests = map[string]string{
	"mixed-0/all":                "f791b2a4e5e43c56",
	"mixed-1/all":                "ce69d47540fe209c",
	"mixed-2/all":                "dbe8387864aa0ae9",
	"mixed-3/all":                "8a5b159531ba6393",
	"mixed-4/all":                "2909867911239ec7",
	"mixed-5/all":                "2698705cff4d5565",
	"paper-sat-satlib.cnf/all":   "6e3690cf7ba84b1e",
	"paper-unsat.cnf/all":        "f674981792d58873",
	"rand8-hard.cnf/all":         "d7e694f8b849a87b",
	"uf20-91-planted-1/all":      "5d77dc5e59b4c184",
	"uf20-91-planted-2/all":      "1b207f88f2e4f41a",
	"uf20-91-planted-3/all":      "e4d540034a19d282",
	"uf20-91-planted-4/all":      "a06a43a1ee38773b",
	"uf20-91-random-1/all":       "0fbdf324956f58e2",
	"uf20-91-random-2/all":       "114d3e647c976537",
	"uf20-91-random-3/all":       "e4872fae09dc9f42",
	"uf20-91-random-4/all":       "a9c81a9946fc371f",
	"uf50-218-planted-1/all":     "5c93108ec646cb7c",
	"uf50-218-planted-2/all":     "21144557db8462b6",
	"uf50-218-planted-3/all":     "d3fd3251ccbc12d2",
	"uf50-218-planted-4/all":     "98bc5e629b4dd90f",
	"uf50-218-random-1/all":      "5e6f4ab72ec7a98c",
	"uf50-218-random-2/all":      "7cbf5c40d1cec5a2",
	"uf50-218-random-3/all":      "6a64949dcafd703e",
	"uf50-218-random-4/all":      "c374039b70aff2d4",
	"uf8-renamed.cnf/all":        "442d4ba230c82473",
	"uf8-satlib.cnf/all":         "c46700d0bfb6a185",
	"mixed-0/count":              "7d86091278c9a135",
	"mixed-1/count":              "ee0a946d3fc107ed",
	"mixed-2/count":              "5989feb04ddc5903",
	"mixed-3/count":              "4aebff937d91d176",
	"mixed-4/count":              "7238d30c2231adef",
	"mixed-5/count":              "3263c35ef23fd425",
	"paper-sat-satlib.cnf/count": "6e3690cf7ba84b1e",
	"paper-unsat.cnf/count":      "f674981792d58873",
	"rand8-hard.cnf/count":       "d7e694f8b849a87b",
	"uf20-91-planted-1/count":    "5d77dc5e59b4c184",
	"uf20-91-planted-2/count":    "1b207f88f2e4f41a",
	"uf20-91-planted-3/count":    "e4d540034a19d282",
	"uf20-91-planted-4/count":    "a06a43a1ee38773b",
	"uf20-91-random-1/count":     "0fbdf324956f58e2",
	"uf20-91-random-2/count":     "114d3e647c976537",
	"uf20-91-random-3/count":     "b5ec0c9fbe54c74f",
	"uf20-91-random-4/count":     "a9c81a9946fc371f",
	"uf50-218-planted-1/count":   "5c93108ec646cb7c",
	"uf50-218-planted-2/count":   "2d0338f313e91d74",
	"uf50-218-planted-3/count":   "999850917e076daf",
	"uf50-218-planted-4/count":   "98bc5e629b4dd90f",
	"uf50-218-random-1/count":    "5b7a542dc506f4b6",
	"uf50-218-random-2/count":    "35bb81e290954b10",
	"uf50-218-random-3/count":    "6a64949dcafd703e",
	"uf50-218-random-4/count":    "c374039b70aff2d4",
	"uf8-renamed.cnf/count":      "ad0b98a35bc68e34",
	"uf8-satlib.cnf/count":       "9b4a06b4b0abcf0b",
}

// mixedFormula draws m clauses over n variables, about one in
// unitOneIn a unit and the rest of width 2..4, with independent
// literals, so a clause can repeat a literal or contain both polarities
// of a variable. Short, overlapping clauses make every pass fire.
func mixedFormula(g *rng.Xoshiro256, n, m, unitOneIn int) *cnf.Formula {
	f := cnf.New(n)
	for range m {
		w := 2 + g.Intn(3)
		if g.Intn(unitOneIn) == 0 {
			w = 1
		}
		c := make(cnf.Clause, w)
		for k := range c {
			c[k] = cnf.NewLit(cnf.Var(1+g.Intn(n)), g.Bool())
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// goldenInputs returns the repository's DIMACS test instances,
// fixed-seed uf20-91 and uf50-218 formulas, random and planted, and
// fixed-seed mixed-width formulas on which every pass fires.
func goldenInputs(t testing.TB) map[string]*cnf.Formula {
	in := map[string]*cnf.Formula{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.cnf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata instances: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dimacs.ReadString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		in[filepath.Base(p)] = f
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, size := range []struct{ n, m int }{{20, 91}, {50, 218}} {
			g := rng.New(seed)
			in[fmt.Sprintf("uf%d-%d-random-%d", size.n, size.m, seed)] = gen.RandomKSAT(g, size.n, size.m, 3)
			p, _ := gen.PlantedKSAT(g, size.n, size.m, 3)
			in[fmt.Sprintf("uf%d-%d-planted-%d", size.n, size.m, seed)] = p
		}
	}
	g := rng.New(99)
	for i := range 6 {
		in[fmt.Sprintf("mixed-%d", i)] = mixedFormula(g, 10+4*i, 25+8*i, 32)
	}
	return in
}

// resultDigest hashes every field of r: the DIMACS text of F, VarMap,
// Forced, Eliminations, Stats and ProvedUnsat.
func resultDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "unsat=%v\n", r.ProvedUnsat)
	if r.F != nil {
		fmt.Fprint(h, dimacs.WriteString(r.F, ""))
	}
	fmt.Fprintf(h, "varmap=%v\nforced=%v\n", r.VarMap, []cnf.Value(r.Forced))
	for _, e := range r.Eliminations {
		fmt.Fprintf(h, "elim %d:", e.V)
		for _, c := range e.Clauses {
			for _, l := range c {
				fmt.Fprintf(h, " %d", l.DIMACS())
			}
			fmt.Fprint(h, " 0")
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "stats=%+v\n", r.Stats)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestSimplifyGolden(t *testing.T) {
	inputs := goldenInputs(t)
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, o := range goldenOptions {
		for _, name := range names {
			key := name + "/" + o.name
			got := resultDigest(Simplify(inputs[name], o.opts))
			if want, ok := goldenDigests[key]; !ok || got != want {
				t.Errorf("%q: %q, // want %q", key, got, want)
			}
		}
	}
}
