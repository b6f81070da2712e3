package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestProgramAgreesWithBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Errorf("workloads %s, BENCHMARK.json lists %s", got, want)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s[%d]: program %s %s, BENCHMARK.json %s %s",
					kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, f.EndToEnd)
	same("per_layer", perLayer, f.PerLayer)
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runBench runs the program in-process and returns its exit code, its
// output and the decoded last line.
func runBench(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append([]string{"-root", ".."}, args...), &out, &errOut)
	if errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return code, out.String(), r
}

// TestEveryMetricPrintsWithUnit runs each workload untraced and traced for
// one second and checks that every metric BENCHMARK.json names is printed,
// by name and with its unit, both as a line and in the result.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	f := readBenchmarkFile(t)
	workloads := workloadNames()
	if testing.Short() {
		workloads = []string{"cluster-16"}
	}
	for _, wl := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []struct{ Name, Unit string }
		}{{"0", f.EndToEnd}, {"1", f.PerLayer}} {
			t.Run(wl+"/trace"+mode.trace, func(t *testing.T) {
				code, out, r := runBench(t, "-workload", wl, "-seed", "42", "-seconds", "1", "-trace", mode.trace)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, r, out)
				}
				if len(r.Metrics) != len(mode.defs) {
					t.Errorf("result has %d metrics, want %d", len(r.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("result lacks %s in %s (got %+v)", d.Name, d.Unit, m)
					}
					found := false
					for _, line := range strings.Split(out, "\n") {
						fields := strings.Fields(line)
						if len(fields) == 3 && fields[0] == d.Name && fields[2] == d.Unit {
							found = true
						}
					}
					if !found {
						t.Errorf("no line prints %s with unit %s", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptDigestTripsGate corrupts one unit's output digest in the
// second timed pass: the run must report it as failed, mark the result
// incorrect and exit non-zero.
func TestCorruptDigestTripsGate(t *testing.T) {
	// cluster-16 has one unit per pass; each set-up's warm-up computes one
	// digest, so the corrupted one belongs to the second timed pass.
	corruptDigest = setupReps + 2
	defer func() { corruptDigest, digests = 0, 0 }()
	digests = 0
	code, out, r := runBench(t, "-workload", "cluster-16", "-seed", "7", "-seconds", "1", "-trace", "0")
	if code == 0 || r.Correct || r.Failed != 1 {
		t.Fatalf("corrupted digest not caught: exit %d, result %+v\n%s", code, r, out)
	}
	if !strings.Contains(out, "differs from the first pass") {
		t.Errorf("no correctness line names the mismatch:\n%s", out)
	}
}

func TestGate(t *testing.T) {
	pass := func(digests ...string) passOut {
		p := passOut{tables: map[string]string{"metbench": "table"}}
		for i, d := range digests {
			p.units = append(p.units, unitOut{label: []string{"metbench/a", "btmz/b"}[i], digest: d})
		}
		return p
	}
	g := &gate{goldens: map[string]string{"metbench": "table"}}
	rep := &report{}
	if n := g.check(pass("a", "b"), rep); n != 0 {
		t.Fatalf("first pass: %d failures %v", n, rep.problems)
	}
	if n := g.check(pass("a", "b"), rep); n != 0 {
		t.Fatalf("identical pass: %d failures %v", n, rep.problems)
	}
	if n := g.check(pass("a", "x"), rep); n != 1 {
		t.Fatalf("one corrupted digest: %d failures, want 1", n)
	}
	p := pass("a", "b")
	p.units[0].err = "panic"
	if n := g.check(p, rep); n != 1 {
		t.Fatalf("one failed unit: %d failures, want 1", n)
	}
	p = pass("a", "b")
	p.tables["metbench"] = "other"
	if n := g.check(p, rep); n != 1 {
		t.Fatalf("golden mismatch: %d failures, want the table's one unit", n)
	}
	if len(rep.problems) != 3 {
		t.Errorf("problems %v, want 3", rep.problems)
	}
}

func TestLayerShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for i := 0; i < 5; i++ {
		driveSim(300_000)
	}
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	if err := layerSamples(buf.Bytes(), counts); err != nil {
		t.Fatal(err)
	}
	shares, samples := sharesOf(counts)
	if samples == 0 {
		t.Skip("no profile samples")
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("shares sum to %.2f%%", sum)
	}
	if shares["sim"] < 50 {
		t.Errorf("sim driver profile attributes only %.1f%% to sim: %v", shares["sim"], shares)
	}
}

func TestGoroutineIDs(t *testing.T) {
	self, _ := goroutineIDs()
	ch := make(chan [2]uint64)
	go func() {
		s, p := goroutineIDs()
		ch <- [2]uint64{s, p}
	}()
	got := <-ch
	if self == 0 || got[0] == 0 || got[0] == self || got[1] != self {
		t.Errorf("parent %d; child reports self %d, parent %d", self, got[0], got[1])
	}
}
