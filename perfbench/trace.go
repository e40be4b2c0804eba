package main

// The traced run. It repeats the untraced run's window on a fresh system
// with the same seed, keeping a span (operation ID, name, start, end) for
// each of the generator's own calls, and scrapes every process's /v1/metrics
// at the window's start and end. It then replays the window's inputs
// through each layer's public functions on an in-process twin built from
// the same fixture and flags; every replayed call's span takes the span of
// the operation it replays as its parent. Spans stay in memory until the
// run ends, when they are written to .bench_build/traces.

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metaquery"
	"repro/internal/pgwire"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// layerDef is one per-layer metric: what it is, where it comes from, and
// which end-to-end metric it should move on which workload. A validity
// metric moves none: it checks the run itself (the generator, the tracing,
// or losses that already fail the output checks).
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Source string `json:"source"`
	Moves  []struct {
		Metric    string   `json:"metric"`
		Workloads []string `json:"workloads"`
	} `json:"moves"`
	Flat     []string `json:"flat"`
	Validity bool     `json:"validity,omitempty"`
}

//go:embed layers.json
var layersJSON []byte

func loadLayers() ([]layerDef, error) {
	var defs []layerDef
	if err := json.Unmarshal(layersJSON, &defs); err != nil {
		return nil, fmt.Errorf("parsing layers.json: %w", err)
	}
	return defs, nil
}

// span is one timed call. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// Count is how many records an aggregate span covers (decode).
	Count int `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(parent, op int, name string, start, end time.Time, count int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Count: count})
	return id
}

// timed runs fn and records its span.
func (t *tracer) timed(parent, op int, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.record(parent, op, name, start, time.Now(), 1)
}

// byName groups span durations (µs) by span name.
func (t *tracer) byName() map[string]samples {
	out := map[string]samples{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/float64(time.Microsecond))
	}
	return out
}

// replayCounts are the counts the replay gathers beside its spans.
type replayCounts struct {
	rows, executes   int
	visible, matches int
	decoded          int
	decode           time.Duration
	replayErrs       int
	lastReplayErr    error
}

// openTwin opens an in-process CQMS on dataDir with the servers' flags and,
// when mine is set, runs the start-up mining pass the server runs on a
// non-empty log.
func openTwin(dataDir string, mine bool) (*core.CQMS, error) {
	eng := engine.New()
	if err := workload.Populate(eng, serverRows, dataSeed); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.MiningInterval, cfg.MaintenanceInterval = time.Hour, time.Hour
	cfg.Durability = wal.DefaultConfig(dataDir)
	cfg.Durability.SyncPolicy = "always"
	cfg.Durability.SnapshotEvery = time.Hour
	c, err := core.OpenWithEngine(eng, cfg)
	if err != nil {
		return nil, fmt.Errorf("opening twin: %w", err)
	}
	if mine && c.Store().Count() > 0 {
		c.RunMiner()
	}
	return c, nil
}

// replay sends the window's inputs through each layer's public functions on
// a twin system, recording spans under each operation's span.
func (e *env) replay(ctx context.Context, spec workloadSpec, fixture string, recs []opRecord, opSpan []int, t *tracer) (*replayCounts, error) {
	rc := &replayCounts{}
	dir, err := e.newRunDir("twin")
	if err != nil {
		return nil, err
	}
	data := filepath.Join(dir, "data")
	if spec.fixture {
		if err := copyDir(fixture, data); err != nil {
			return nil, err
		}
		// Decode every WAL record of a separate fixture copy, as recovery
		// does, under one aggregate span.
		decodeDir := filepath.Join(dir, "decode")
		if err := copyDir(fixture, decodeDir); err != nil {
			return nil, err
		}
		log, err := wal.OpenLog(wal.Options{Dir: decodeDir, Sync: wal.SyncOff})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = log.Replay(0, func(_ uint64, payload []byte) error {
			d := time.Now()
			_, derr := storage.DecodeMutation(payload)
			rc.decode += time.Since(d)
			rc.decoded++
			return derr
		})
		_ = log.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding the fixture log: %w", err)
		}
		t.record(0, -1, "wal.decode", start, start.Add(rc.decode), rc.decoded)
	}

	twinEng := engine.New()
	if err := workload.Populate(twinEng, serverRows, dataSeed); err != nil {
		return nil, err
	}
	c, err := openTwin(data, true)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// storage.put is timed on a second twin of the same state, so each put
	// takes the durable path the twin's Submit takes: the commit lock, the
	// WAL append and fsync, and the stats, sessions and miner subscribers.
	putData := filepath.Join(dir, "put")
	if spec.fixture {
		if err := copyDir(fixture, putData); err != nil {
			return nil, err
		}
	}
	putTwin, err := openTwin(putData, true)
	if err != nil {
		return nil, err
	}
	defer putTwin.Close()
	putStore := putTwin.Store()
	var direct *pgwire.FrontendConn
	if spec.capture {
		fb, err := pgwire.NewFakeBackend("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer fb.Close()
		first := recs[0].op
		if direct, err = pgwire.DialFrontend(fb.Addr(), first.userName(), first.group()); err != nil {
			return nil, err
		}
		defer direct.Close()
	}
	tailFrom := c.Durability().LastSeq()
	fail := func(err error) {
		if err != nil {
			rc.replayErrs++
			rc.lastReplayErr = err
		}
	}
	for i, r := range recs {
		if r.done.IsZero() || r.err != nil {
			continue
		}
		op, parent := r.op, opSpan[i]
		p := storage.Principal{User: op.userName(), Groups: []string{op.group()}}
		var err error
		switch op.Kind {
		case opSubmit, opStmt:
			if op.Kind == opStmt {
				t.timed(parent, op.ID, "pgwire.direct", func() { err = direct.SimpleQuery(op.Arg) })
				fail(err)
			}
			ps := t.timed(parent, op.ID, "profiler.submit", func() {
				_, err = c.Submit(profiler.Submission{User: op.userName(), Group: op.group(),
					Visibility: storage.VisibilityGroup, SQL: op.Arg})
			})
			fail(err)
			var rec *storage.QueryRecord
			t.timed(ps, op.ID, "sql.parse", func() { rec, err = storage.NewRecordFromSQL(op.Arg) })
			fail(err)
			var res *engine.Result
			var execErr error
			t.timed(ps, op.ID, "engine.execute", func() { res, execErr = twinEng.Execute(op.Arg) })
			rc.executes++
			if execErr == nil {
				rc.rows += len(res.Rows)
			}
			if rec != nil {
				rec.User, rec.Group, rec.Visibility = op.userName(), op.group(), storage.VisibilityGroup
				t.timed(ps, op.ID, "storage.put", func() { putStore.Put(rec) })
			}
		case opSearch:
			var got []metaquery.Match
			t.timed(parent, op.ID, "metaquery.search", func() { got, err = c.Search(ctx, p, op.Arg) })
			fail(err)
			rc.matches += len(got)
			c.Store().Snapshot().Scan(p, func(*storage.QueryRecord) bool {
				rc.visible++
				return true
			})
		case opComplete:
			t.timed(parent, op.ID, "recommend.complete", func() { _, err = c.Complete(ctx, p, op.Arg, 5) })
			fail(err)
		case opStats:
			tk := c.StatsTracker()
			// The reads GET /v1/stats serves from the tracker.
			t.timed(parent, op.ID, "stats.read", func() {
				tk.QueryCount(p)
				tk.TableCounts(p)
				tk.UserActivity(p)
				tk.TopPredicates(p, 20)
				tk.Bounds(p)
			})
		}
	}
	// The put twin is not needed any more; free it before replayApply
	// recovers another twin.
	putTwin.Close()
	if spec.capture {
		if err := e.replayApply(fixture, c, tailFrom, t); err != nil {
			return nil, err
		}
	}
	return rc, nil
}

// replayApply decodes the twin's WAL tail written by the replay and applies
// it to a second twin recovered from the fixture, as a follower applies the
// stream, one span per record.
func (e *env) replayApply(fixture string, c *core.CQMS, after uint64, t *tracer) error {
	var buf bytes.Buffer
	if _, _, err := c.Durability().ReadTail(after, math.MaxInt64, &buf); err != nil {
		return fmt.Errorf("reading the twin's tail: %w", err)
	}
	var muts []*storage.Mutation
	if err := wal.ReadFrames(&buf, func(_ uint64, payload []byte) error {
		m, err := storage.DecodeMutation(payload)
		muts = append(muts, m)
		return err
	}); err != nil {
		return fmt.Errorf("decoding the twin's tail: %w", err)
	}
	dir, err := e.newRunDir("twin-follower")
	if err != nil {
		return err
	}
	data2 := filepath.Join(dir, "data")
	if err := copyDir(fixture, data2); err != nil {
		return err
	}
	f, err := openTwin(data2, false)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, m := range muts {
		var err error
		t.timed(0, -1, "replication.apply", func() { err = f.Store().Apply(m) })
		if err != nil {
			return fmt.Errorf("applying the twin's tail: %w", err)
		}
	}
	return nil
}

// reqHistogram is the primary's per-route request latency histogram.
const reqHistogram = "cqms_http_request_seconds"

// serverRoutes are the primary's routes the workloads reach, each named
// for the per-layer metrics by the operation that reaches it. capture
// reaches only the batch route, through the proxy's capture sink.
var serverRoutes = []struct{ name, route string }{
	{opSubmit, "POST /v1/queries"},
	{opSearch, "POST /v1/search/keyword"},
	{opComplete, "POST /v1/assist/complete"},
	{opStats, "GET /v1/stats"},
	{"batch", "POST /v1/queries:batch"},
}

// reaches reports whether a workload's operations reach the named route.
func reaches(spec workloadSpec, name string) bool {
	if spec.capture {
		return name == "batch"
	}
	return spec.mix[name] > 0
}

// traceLayers replays the traced window, prints the per-layer table, writes
// the spans and returns every per-layer metric.
func (e *env) traceLayers(ctx context.Context, spec workloadSpec, fixture string, tr, base *runOutcome, seed int64) (map[string]metric, error) {
	defs, err := loadLayers()
	if err != nil {
		return nil, err
	}
	m := tr.m
	t := &tracer{t0: m.start}
	opSpan := make([]int, len(m.recs))
	for i, r := range m.recs {
		if !r.done.IsZero() {
			opSpan[i] = t.record(0, r.op.ID, "op."+r.op.Kind, r.sent, r.done, 1)
		}
	}
	rc, err := e.replay(ctx, spec, fixture, m.recs, opSpan, t)
	if err != nil {
		return nil, err
	}
	if rc.replayErrs > 0 {
		// The spans of a broken replay would give fast, wrong figures.
		m.failf("replay: %d calls failed on the twin, last: %v", rc.replayErrs, rc.lastReplayErr)
	}
	spans := t.byName()
	pw := m.scrapes["primary"]
	logged := float64(max(m.logged, 1))
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"server.resp_bytes_per_op":       ratio(float64(m.respBytes), float64(m.attempted)),
		"sql.parse_us":                   spans["sql.parse"].mean(),
		"sql.parse_errors":               pw.delta("cqms_profiler_parse_errors_total", nil),
		"engine.execute_us":              spans["engine.execute"].mean(),
		"engine.result_rows":             ratio(float64(rc.rows), float64(rc.executes)),
		"profiler.submit_us":             spans["profiler.submit"].mean(),
		"storage.put_us":                 spans["storage.put"].mean(),
		"storage.commit_hold_us":         pw.mean("cqms_store_commit_lock_hold_seconds", nil) * 1e6,
		"storage.durability_wait_p50_us": pw.quantile("cqms_store_durability_wait_seconds", 0.5) * 1e6,
		"storage.durability_wait_p99_us": pw.quantile("cqms_store_durability_wait_seconds", 0.99) * 1e6,
		"storage.mutations_per_query":    pw.delta("cqms_store_mutations_total", nil) / logged,
		"stats.bus_us":                   pw.mean("cqms_bus_callback_seconds", map[string]string{"subscriber": "stats"}) * 1e6,
		"stats.read_us":                  pw.mean("cqms_stats_read_seconds", nil) * 1e6,
		"stats.topk_miss_bound":          pw.after.sum("cqms_stats_topk_miss_bound", nil),
		"session.bus_us":                 pw.mean("cqms_bus_callback_seconds", map[string]string{"subscriber": "sessions"}) * 1e6,
		"session.resegments":             pw.delta("cqms_sessions_resegments_total", nil),
		"miner.bus_us":                   pw.mean("cqms_bus_callback_seconds", map[string]string{"subscriber": "miner-feed"}) * 1e6,
		"miner.startup_pass_s":           pw.before.sum("cqms_miner_pass_seconds_sum", nil),
		"wal.append_us":                  pw.mean("cqms_wal_append_seconds", nil) * 1e6,
		"wal.fsync_us":                   pw.mean("cqms_wal_fsync_seconds", nil) * 1e6,
		"wal.records_per_fsync":          pw.mean("cqms_wal_group_commit_records", nil),
		"wal.bytes_per_query":            pw.delta("cqms_wal_segment_bytes", nil) / logged,
		"wal.recovery_s":                 pw.after.sum("cqms_wal_recovery_seconds", nil),
		"wal.recovery_records":           pw.after.sum("cqms_wal_recovery_replayed_records", nil),
		"wal.decode_us_per_record":       ratio(float64(rc.decode)/float64(time.Microsecond), float64(rc.decoded)),
		"metaquery.search_us":            spans["metaquery.search"].mean(),
		"metaquery.scanned_per_match":    ratio(float64(rc.visible), float64(rc.matches)),
		"recommend.complete_us":          pw.mean("cqms_assist_seconds", map[string]string{"op": "complete"}) * 1e6,
		"recommend.empty_ratio":          ratio(float64(m.emptyCompletes), float64(m.completes)),
		"replication.drain_ms":           ms(m.drain),
		"replication.apply_us":           spans["replication.apply"].mean(),
		"replication.lag_p99_ms":         m.lag.percentile(0.99),
		"gen.late_p99_ms":                m.late.percentile(0.99),
		"gen.cpu_share":                  m.generatorShare(),
		"gen.error_ratio":                ratio(float64(m.failed), float64(m.attempted)),
		"trace.overhead_p50_ms":          tr.e2e["p50_ms"].Value - base.e2e["p50_ms"].Value,
	}
	v["profiler.self_us"] = v["profiler.submit_us"] - v["sql.parse_us"] - v["engine.execute_us"] - v["storage.put_us"]
	for _, r := range serverRoutes {
		if reaches(spec, r.name) {
			route := map[string]string{"route": r.route}
			v["server."+r.name+"_p50_us"] = pw.quantile(reqHistogram, 0.5, route) * 1e6
			v["server."+r.name+"_p99_us"] = pw.quantile(reqHistogram, 0.99, route) * 1e6
		}
	}
	if spec.capture {
		px, fw := m.scrapes["proxy"], m.scrapes["follower"]
		v["pgwire.rtt_overhead_us"] = (m.service[opStmt].percentile(0.5) * 1000) - spans["pgwire.direct"].percentile(0.5)
		v["pgwire.dropped"] = float64(m.proxy.StatementsDropped)
		v["pgwire.submit_errors"] = float64(m.proxy.SubmitErrors)
		v["pgwire.sink_batch_us"] = px.mean("cqms_proxy_submit_seconds", nil) * 1e6
		v["pgwire.stmts_per_batch"] = ratio(px.delta("cqms_proxy_statements_captured_total", nil), px.delta("cqms_proxy_submit_seconds_count", nil))
		v["replication.bootstrap_s"] = tr.sys.bootstrap.Seconds()
		v["replication.stream_bytes_per_record"] = ratio(fw.delta("cqms_repl_stream_bytes_total", nil), fw.delta("cqms_repl_applied_seq", nil))
	}

	if err := e.writeSpans(spec, seed, t); err != nil {
		return nil, err
	}
	printLayerTable(t)
	for _, r := range serverRoutes {
		if reaches(spec, r.name) {
			fmt.Printf("  route %-26s n %6.0f\n", r.route, pw.delta(reqHistogram+"_count", map[string]string{"route": r.route}))
		}
	}
	out := map[string]metric{}
	fmt.Printf("per-layer metrics (%s, seed %d)\n", spec.name, seed)
	for _, d := range defs {
		val := v[d.Name]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		out[d.Name] = metric{Value: val, Unit: d.Unit}
		moves := "validity only"
		if !d.Validity {
			var mv []string
			for _, m := range d.Moves {
				mv = append(mv, m.Metric+"@"+strings.Join(m.Workloads, ","))
			}
			moves = "moves " + strings.Join(mv, " ")
		}
		fmt.Printf("  %-36s %14.4f %-6s %s\n", d.Name, val, d.Unit, moves)
	}
	return out, nil
}

func (e *env) writeSpans(spec workloadSpec, seed int64, t *tracer) error {
	path := filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.jsonl", spec.name, seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
	return nil
}

// printLayerTable prints, per span name: calls, p50/p99 (tail rule), total,
// self time (span minus its children) and each name's share of all self
// time.
func printLayerTable(t *tracer) {
	childSum := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	var allSelf time.Duration
	for _, s := range t.spans {
		d := s.dur() - childSum[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
		allSelf += d
	}
	byName := t.byName()
	fmt.Printf("  %-20s %7s %10s %10s %12s %12s %7s\n", "span", "calls", "p50_us", "p99_us", "total_ms", "self_ms", "share")
	for _, name := range sortedKeys(byName) {
		s := byName[name]
		p99 := "omitted"
		if v, ok := s.tail(0.99); ok {
			p99 = fmt.Sprintf("%.1f", v)
		}
		var total float64
		for _, x := range s {
			total += x
		}
		share := 0.0
		if allSelf > 0 {
			share = float64(self[name]) / float64(allSelf)
		}
		fmt.Printf("  %-20s %7d %10.1f %10s %12.2f %12.2f %6.1f%%\n", name, len(s), s.percentile(0.5), p99,
			total/1000, ms(self[name]), share*100)
	}
}
