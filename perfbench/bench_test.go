package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func scheduleBytes(t *testing.T, spec workloadSpec, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(makeSchedule(spec, seed, 3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, spec := range workloads {
		a, b := scheduleBytes(t, spec, 7), scheduleBytes(t, spec, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", spec.name)
		}
		if c := scheduleBytes(t, spec, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", spec.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	for _, spec := range workloads {
		ops := makeSchedule(spec, 3, 20*time.Second)
		if n, want := float64(len(ops)), spec.rate*20; n != want {
			t.Errorf("%s: %v arrivals in 20s, want %v", spec.name, n, want)
		}
		counts := map[string]int{}
		for i, op := range ops {
			if op.ID != i || op.At < 0 || op.At >= 20*time.Second || (i > 0 && op.At < ops[i-1].At) {
				t.Fatalf("%s: op %d out of order", spec.name, i)
			}
			if op.User < 0 || op.User >= population {
				t.Fatalf("%s: user %d outside the population", spec.name, op.User)
			}
			if op.Kind != opStats && op.Arg == "" {
				t.Fatalf("%s: op %d (%s) has no argument", spec.name, i, op.Kind)
			}
			if (op.Kind == opStmt) != (op.Conn >= 0) {
				t.Fatalf("%s: op %d (%s) pinned to conn %d", spec.name, i, op.Kind, op.Conn)
			}
			counts[op.Kind]++
		}
		for kind, share := range spec.mix {
			got := float64(counts[kind]) / float64(len(ops))
			if math.Abs(got-share) > 1/float64(len(ops)) {
				t.Errorf("%s: %s share %.3f, want %.2f", spec.name, kind, got, share)
			}
		}
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got := s.percentile(0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := s.percentile(0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := s.percentile(1); got != 1000 {
		t.Errorf("p100 of 1..1000 = %v, want 1000", got)
	}
	if v, ok := s.tail(0.99); !ok || v != 990 || beyond(len(s), 0.99) != 10 {
		t.Errorf("1000 samples: tail p99 = %v, %v with %d beyond; want 990 with 10", v, ok, beyond(len(s), 0.99))
	}
	if _, ok := s[:999].tail(0.99); ok {
		t.Errorf("999 samples leave 9 beyond p99; the tail rule must omit it")
	}
	if _, ok := s[:100].tail(0.9); !ok {
		t.Errorf("100 samples leave 10 beyond p90; the tail rule must allow it")
	}
	if !math.IsNaN(samples(nil).percentile(0.5)) {
		t.Errorf("percentile of no samples must be NaN")
	}
	if got := (samples{3, 1, 2}).percentile(0.5); got != 2 {
		t.Errorf("median of 3,1,2 = %v, want 2", got)
	}
}

func TestWeightedMedian(t *testing.T) {
	byOp := map[string]samples{"a": {1, 2, 3}, "b": {10, 20, 30}}
	if got := weightedMedian(byOp, map[string]float64{"a": 0.75, "b": 0.25}); got != 0.75*2+0.25*20 {
		t.Errorf("weighted median = %v", got)
	}
	// An operation with no samples drops out and the weights renormalise.
	if got := weightedMedian(byOp, map[string]float64{"a": 0.5, "c": 0.5}); got != 2 {
		t.Errorf("weighted median without c = %v, want 2", got)
	}
}

func TestParseExpositionAndWindow(t *testing.T) {
	before, err := parseExposition(`# HELP x
h_bucket{route="a",le="0.001"} 0
h_bucket{route="a",le="0.002"} 10
h_bucket{route="a",le="+Inf"} 10
h_sum{route="a"} 0.015
h_count{route="a"} 10
c_total{k="v \"q\""} 5
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(`h_bucket{route="a",le="0.001"} 50
h_bucket{route="a",le="0.002"} 110
h_bucket{route="a",le="+Inf"} 110
h_sum{route="a"} 0.115
h_count{route="a"} 110
c_total{k="v \"q\""} 8
`)
	if err != nil {
		t.Fatal(err)
	}
	w := window{before: before, after: after}
	if got := w.delta("c_total", nil); got != 3 {
		t.Errorf("counter delta = %v, want 3", got)
	}
	if got := w.mean("h", map[string]string{"route": "a"}); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("mean = %vs, want 0.001", got)
	}
	// 50 of 100 new observations lie at or below 1 ms.
	if got := w.quantile("h", 0.5, map[string]string{"route": "a"}); math.Abs(got-0.001) > 1e-9 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := w.quantile("h", 0.75); math.Abs(got-0.0015) > 1e-9 {
		t.Errorf("p75 = %v, want 0.0015", got)
	}
	if got := w.quantile("h", 0.5, map[string]string{"route": "b"}); got != 0 {
		t.Errorf("p50 of an unobserved route = %v, want 0", got)
	}
}

func TestParseProc(t *testing.T) {
	stat := "42 (cqms server) S 1 42 42 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	if got, err := parseStatCPU(stat); err != nil || got != 3*time.Second {
		t.Errorf("cpu = %v, %v; want 3s", got, err)
	}
	if got, err := parseStatusField("Name:\tx\nVmHWM:\t  1234 kB\nVmRSS:\t 99 kB\n", "VmHWM"); err != nil || got != 1234 {
		t.Errorf("VmHWM = %v, %v; want 1234", got, err)
	}
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	defs, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.name)
	}
	for _, d := range defs {
		check(d.Name)
	}
}

func TestBenchmarkFileMatchesGenerator(t *testing.T) {
	bf := loadBenchmarkFile(t)
	defs, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(bf.Command, " ") != "bash perfbench/run.sh" || strings.Join(bf.Paths, " ") != "perfbench" {
		t.Errorf("BENCHMARK.json runs %q from %q, want bash perfbench/run.sh from perfbench", bf.Command, bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the generator %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the generator %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the generator %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the generator %+v", i, m, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layers.json %d", len(bf.PerLayer), len(defs))
	}
	for i, m := range bf.PerLayer {
		d := defs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, layers.json %s/%s/%s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}

// Every per-layer metric names the end-to-end metric and the workload it
// should move; only validity metrics move nothing.
func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	bf := loadBenchmarkFile(t)
	defs, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	e2e, wls := map[string]bool{}, map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range bf.Workloads {
		wls[w.Name] = true
	}
	for _, d := range defs {
		if d.Source == "" {
			t.Errorf("%s: no source", d.Name)
		}
		if len(d.Moves) == 0 && !d.Validity {
			t.Errorf("%s: names no end-to-end metric it should move", d.Name)
		}
		if len(d.Moves) > 0 && d.Validity {
			t.Errorf("%s: a validity metric names end-to-end metrics it moves", d.Name)
		}
		for _, mv := range d.Moves {
			if !e2e[mv.Metric] {
				t.Errorf("%s: moves unknown end-to-end metric %q", d.Name, mv.Metric)
			}
			if len(mv.Workloads) == 0 {
				t.Errorf("%s: moves %s on no workload", d.Name, mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !wls[w] {
					t.Errorf("%s: moves %s on unknown workload %q", d.Name, mv.Metric, w)
				}
			}
		}
		for _, w := range d.Flat {
			if !wls[w] {
				t.Errorf("%s: flat on unknown workload %q", d.Name, w)
			}
		}
	}
}

// A fixture built by one cqms-server binary is never reused by another.
func TestFixtureNameCarriesTheServerBinary(t *testing.T) {
	dir := t.TempDir()
	sums := map[string]string{}
	for _, content := range []string{"server build one", "server build two"} {
		path := filepath.Join(dir, "cqms-server")
		if err := os.WriteFile(path, []byte(content), 0o755); err != nil {
			t.Fatal(err)
		}
		sum, err := fileSHA256(path)
		if err != nil {
			t.Fatal(err)
		}
		sums[content] = sum
	}
	a, b := fixtureName(sums["server build one"]), fixtureName(sums["server build two"])
	if a == b {
		t.Errorf("two server binaries share the fixture %q", a)
	}
	if a != fixtureName(sums["server build one"]) {
		t.Errorf("one server binary gave two fixture names")
	}
	if !strings.Contains(a, sums["server build one"]) {
		t.Errorf("fixture name %q does not carry the binary's hash", a)
	}
}

func TestDriveRunsEveryOpOnItsConnection(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		var ops []Op
		for i := 0; i < 40; i++ {
			op := Op{ID: i, At: time.Duration(i) * time.Millisecond, Conn: -1}
			if pinned {
				op.Conn = i % 2
			}
			ops = append(ops, op)
		}
		var mu sync.Mutex
		worker := map[int]int{}
		recs, _ := drive(context.Background(), ops, 2, func(_ context.Context, w int, op Op) (any, error) {
			mu.Lock()
			worker[op.ID] = w
			mu.Unlock()
			return op.ID, nil
		})
		for i, r := range recs {
			if r.op.ID != i || r.result != i || r.done.Before(r.sent) || r.latency < 0 {
				t.Fatalf("pinned=%v: record %d is %+v", pinned, i, r)
			}
			if pinned && worker[i] != i%2 {
				t.Fatalf("op %d ran on worker %d, pinned to %d", i, worker[i], i%2)
			}
		}
	}
}
