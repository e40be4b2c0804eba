// Command cqms-perfbench is the repository's end-to-end benchmark. It builds
// the checkout's own cqms-server and cqms-proxy, launches them as child
// processes on prepared inputs, drives one named workload open-loop from a
// seed, checks the outputs and prints every metric by name and unit:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 they are the per-layer metrics of a
// traced run (see trace.go). The exit code is 0 only when every output check
// passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"time"
)

// A run launches its topology from scratch setupReps to maxSetups times
// (see measure); setup_s is the median.
const (
	setupReps   = 3
	setupBudget = 2 * time.Second
	maxSetups   = 15
)

// metric is one named, unit-carrying figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
	{"log_bytes_per_query", "B"},
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ingest, explore or capture")
		seed    = flag.Int64("seed", 1, "seed of the workload's schedule and inputs")
		seconds = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	)
	flag.Parse()
	spec, err := lookupWorkload(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := run(ctx, spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, spec workloadSpec, seed int64, window time.Duration, traced bool) (*result, error) {
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	if err := e.buildBinaries(ctx); err != nil {
		return nil, err
	}
	var fixture string
	if spec.fixture {
		if fixture, err = e.ensureFixture(ctx); err != nil {
			return nil, err
		}
	}
	ops := makeSchedule(spec, seed, window)
	fmt.Printf("workload %s, seed %d: %d operations over %s at %.0f/s, %d HTTP / %d pgwire connections\n",
		spec.name, seed, len(ops), window, spec.rate, httpConns, pgConns)

	reps := setupReps
	if traced {
		reps = 1
	}
	base, err := e.measure(ctx, spec, fixture, ops, reps, "untraced")
	if err != nil {
		return nil, err
	}
	base.print(spec)
	if !traced {
		return base.result(base.e2e), nil
	}
	tr, err := e.measure(ctx, spec, fixture, ops, 1, "traced")
	if err != nil {
		return nil, err
	}
	layers, err := e.traceLayers(ctx, spec, fixture, tr, base, seed)
	if err != nil {
		return nil, err
	}
	res := tr.result(layers)
	res.Correct = res.Correct && len(base.m.failures) == 0
	return res, nil
}

// runOutcome is one measured window with the set-up times that led to it.
type runOutcome struct {
	label  string
	setups samples
	sys    *system
	m      *measurement
	e2e    map[string]metric
}

// measure launches the topology at least reps times, and again while the
// launches so far took under setupBudget (up to maxSetups), so a fast set-up
// is sampled often enough for a steady median. The last launch serves the
// window, which is measured once; then the system is stopped.
func (e *env) measure(ctx context.Context, spec workloadSpec, fixture string, ops []Op, reps int, label string) (*runOutcome, error) {
	out := &runOutcome{label: label}
	var sys *system
	var spent time.Duration
	for i := 0; sys == nil; i++ {
		s, err := e.launch(ctx, spec, fixture, fmt.Sprintf("%s-%d", label, i))
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, s.setup.Seconds())
		spent += s.setup
		if i+1 < reps || (reps > 1 && spent < setupBudget && i+1 < maxSetups) {
			s.stop()
			continue
		}
		sys = s
	}
	logf("%s: %d set-ups, median %.4fs", label, len(out.setups), out.setups.percentile(0.5))
	defer sys.stop()
	m, err := measureWindow(ctx, spec, sys, ops)
	if err != nil {
		return nil, err
	}
	out.sys, out.m = sys, m
	out.e2e = out.endToEnd(spec)
	for _, f := range m.failures {
		logf("CHECK FAILED: %s", f)
	}
	return out, nil
}

// pooled returns every successful operation's latency.
func (m *measurement) pooled() samples {
	var all samples
	for _, s := range m.byOp {
		all = append(all, s...)
	}
	return all
}

func (m *measurement) completed() int { return m.attempted - m.failed }

// endToEnd computes the end-to-end metrics of a run.
func (o *runOutcome) endToEnd(spec workloadSpec) map[string]metric {
	m := o.m
	values := map[string]float64{
		"setup_s":       o.setups.percentile(0.5),
		"p50_ms":        weightedMedian(m.byOp, spec.mix),
		"cpu_ms_per_op": ms(m.cqmsCPU) / float64(m.completed()),
		"rss_mb":        float64(m.rssKiB) / 1024,
	}
	if m.logged > 0 {
		values["log_bytes_per_query"] = float64(m.logBytes) / float64(m.logged)
	} else {
		m.failf("no query was logged in the window")
	}
	out := map[string]metric{}
	for _, def := range endToEnd {
		v, ok := values[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			m.failf("%s could not be computed", def.name)
			continue
		}
		out[def.name] = metric{Value: v, Unit: def.unit}
	}
	return out
}

func (o *runOutcome) result(metrics map[string]metric) *result {
	return &result{
		Correct:   len(o.m.failures) == 0,
		Attempted: o.m.attempted,
		Failed:    o.m.failed,
		Metrics:   metrics,
	}
}

// print writes the human-readable report of a run: every operation's sample
// count and percentiles under the tail rule, then the run-level figures.
func (o *runOutcome) print(spec workloadSpec) {
	m := o.m
	fmt.Printf("%s run: %d attempted, %d failed, window %.2fs\n", o.label, m.attempted, m.failed, m.wall.Seconds())
	fmt.Printf("  %-10s %7s %10s %10s %10s\n", "op", "n", "p50_ms", "p99_ms", "beyond_p99")
	rows := map[string]samples{"all": m.pooled()}
	for op, s := range m.byOp {
		rows[op] = s
	}
	for _, op := range sortedKeys(rows) {
		s := rows[op]
		p99 := "omitted"
		if v, ok := s.tail(0.99); ok {
			p99 = fmt.Sprintf("%.3f", v)
		}
		fmt.Printf("  %-10s %7d %10.3f %10s %10d\n", op, len(s), s.percentile(0.5), p99, beyond(len(s), 0.99))
	}
	for _, def := range endToEnd {
		if v, ok := o.e2e[def.name]; ok {
			fmt.Printf("  %-24s %12.4f %s\n", def.name, v.Value, def.unit)
		}
	}
	fmt.Printf("  %-24s %12.4f ms\n", "mean_ms", m.pooled().mean())
	fmt.Printf("  %-24s %12.4f ratio\n", "error_ratio", float64(m.failed)/float64(max(m.attempted, 1)))
	if spec.capture {
		fmt.Printf("  %-24s %12.4f ms\n", "replica_drain_ms", ms(m.drain))
	}
	late := m.late.percentile(0.99)
	fmt.Printf("  %-24s %12.4f ms (%d idle wake-ups)\n", "gen.late_p99_ms", late, len(m.late))
	fmt.Printf("  %-24s %12.4f share\n", "gen.cpu_share", m.generatorShare())
	fmt.Printf("  setups_s %v\n", o.setups)
}

// generatorShare is the generator's CPU as a share of all CPU the benchmark's
// processes used in the window.
func (m *measurement) generatorShare() float64 {
	total := m.generatorCPU + m.cqmsCPU
	if total <= 0 {
		return 0
	}
	return float64(m.generatorCPU) / float64(total)
}
