package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/pgwire"
	"repro/internal/server"
)

// searchPage is the page size of a search: an interactive user reads the
// first page only.
const searchPage = 25

// readbackSample is how many acknowledged submits are read back by ID.
const readbackSample = 50

// maxLateMS is how far behind schedule the generator may wake (p99) before
// the run is declared invalid rather than scored.
const maxLateMS = 20

// measurement is everything one measured window produced.
type measurement struct {
	recs      []opRecord
	start     time.Time
	attempted int
	failed    int
	// byOp holds each successful operation's latency from its scheduled
	// send time; service holds send-to-reply times.
	byOp    map[string]samples
	service map[string]samples
	late    samples
	// wall is the window: first scheduled send to the last reply (and, in
	// capture, to the follower catching up).
	wall         time.Duration
	cqmsCPU      time.Duration
	generatorCPU time.Duration
	rssKiB       int64
	logBytes     int64
	logged       int
	// drain is the last statement's reply to the follower holding it
	// (capture only); lag holds the follower's reported lag, polled.
	drain time.Duration
	lag   samples
	// respBytes is the response body bytes of the generator's own HTTP
	// operations (0 in capture, which sends statements only).
	respBytes int64
	// completes and emptyCompletes count assist calls and those that
	// returned no suggestion.
	completes, emptyCompletes int
	// scrapes holds each process's metrics at the window's start and end.
	scrapes map[string]window
	proxy   *client.ProxyStatus
	// failures lists failed output checks.
	failures []string
}

func (m *measurement) failf(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

func newHTTPClient(baseURL string, admin bool) *client.Client {
	return newCountingClient(baseURL, admin, nil)
}

// newCountingClient is newHTTPClient that also adds the response body bytes
// it reads to respBytes, when respBytes is not nil.
func newCountingClient(baseURL string, admin bool, respBytes *atomic.Int64) *client.Client {
	var tr http.RoundTripper = &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, IdleConnTimeout: time.Minute}
	if respBytes != nil {
		tr = countingTransport{tr, respBytes}
	}
	opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: tr, Timeout: opTimeout}), client.WithPageSize(searchPage)}
	if admin {
		opts = append(opts, client.WithAdmin())
	}
	return client.New(baseURL, opts...)
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	http.RoundTripper
	n *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.RoundTripper.RoundTrip(r)
	if resp != nil {
		resp.Body = countingBody{resp.Body, t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// httpExecutor runs submit/search/complete/stats operations on the primary.
func httpExecutor(c *client.Client) executor {
	return func(ctx context.Context, _ int, op Op) (any, error) {
		u := c.As(op.userName(), op.group())
		switch op.Kind {
		case opSubmit:
			resp, err := u.Submit(ctx, op.Arg, client.Group(op.group()), client.Visibility("group"))
			if err != nil {
				return nil, err
			}
			return resp.QueryID, nil
		case opSearch:
			it := u.SearchKeyword(ctx, op.Arg)
			var page []server.MatchDTO
			for len(page) < searchPage && it.Next() {
				page = append(page, it.Item())
			}
			return page, it.Err()
		case opComplete:
			got, err := u.Complete(ctx, op.Arg, 5)
			return len(got), err
		case opStats:
			_, err := u.Stats(ctx)
			return nil, err
		}
		return nil, fmt.Errorf("operation %q is not an HTTP call", op.Kind)
	}
}

// pgExecutor sends statements as simple queries, one session per worker.
func pgExecutor(conns []*pgwire.FrontendConn) executor {
	return func(ctx context.Context, w int, op Op) (any, error) {
		return nil, conns[w].SimpleQuery(op.Arg)
	}
}

// loggedQueries reads the primary's admin view: the total logged query count.
func loggedQueries(ctx context.Context, baseURL string) (int, error) {
	st, err := newHTTPClient(baseURL, true).Stats(ctx)
	if err != nil {
		return 0, err
	}
	return st.Queries, nil
}

func (s *system) processURLs() map[string]string {
	out := map[string]string{"primary": s.primaryURL}
	if s.follower != nil {
		out["follower"] = s.followerURL
	}
	if s.proxy != nil {
		out["proxy"] = s.proxyAdminURL
	}
	return out
}

func scrapeAll(ctx context.Context, s *system) (map[string]scrape, error) {
	out := map[string]scrape{}
	for name, url := range s.processURLs() {
		sc, err := fetchScrape(ctx, url)
		if err != nil {
			return nil, err
		}
		out[name] = sc
	}
	return out, nil
}

// measureWindow drives the schedule against a launched system and collects
// every end-to-end figure and output check of the window.
func measureWindow(ctx context.Context, spec workloadSpec, s *system, ops []Op) (*measurement, error) {
	m := &measurement{byOp: map[string]samples{}, service: map[string]samples{}, scrapes: map[string]window{}}
	var exec executor
	var respBytes atomic.Int64
	workers := httpConns
	if spec.capture {
		conns := make([]*pgwire.FrontendConn, pgConns)
		for i := range conns {
			user := -1
			for _, op := range ops {
				if op.Conn == i {
					user = op.User
					break
				}
			}
			if user < 0 {
				continue
			}
			op := Op{User: user}
			c, err := pgwire.DialFrontend(s.pgAddr, op.userName(), op.group())
			if err != nil {
				return nil, fmt.Errorf("connecting to the proxy: %w", err)
			}
			defer c.Close()
			conns[i] = c
		}
		exec = pgExecutor(conns)
		workers = pgConns
	} else {
		exec = httpExecutor(newCountingClient(s.primaryURL, false, &respBytes))
	}

	logged0, err := loggedQueries(ctx, s.primaryURL)
	if err != nil {
		return nil, err
	}
	bytes0, err := dirBytes(s.dataDir)
	if err != nil {
		return nil, err
	}
	before, err := scrapeAll(ctx, s)
	if err != nil {
		return nil, err
	}
	cpu0, err := cqmsCPU(s)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()

	var stopLag func()
	if spec.capture {
		stopLag = pollLag(ctx, s, m)
	}
	recs, start := drive(ctx, ops, workers, exec)
	m.recs, m.start = recs, start
	m.respBytes = respBytes.Load()
	last := start
	for _, r := range recs {
		if r.done.After(last) {
			last = r.done
		}
	}
	if spec.capture {
		completed := 0
		for _, r := range recs {
			if r.err == nil && !r.done.IsZero() {
				completed++
			}
		}
		if err := waitCaughtUp(ctx, s, logged0+completed, time.Minute); err != nil {
			m.failf("capture: %v", err)
		}
		m.drain = time.Since(last)
		stopLag()
	}
	end := time.Now()
	cpu1, err := cqmsCPU(s)
	if err != nil {
		return nil, err
	}
	m.generatorCPU = selfCPU() - self0
	m.cqmsCPU = cpu1 - cpu0
	m.wall = end.Sub(start)
	after, err := scrapeAll(ctx, s)
	if err != nil {
		return nil, err
	}
	for name := range after {
		m.scrapes[name] = window{before: before[name], after: after[name]}
	}
	for _, p := range s.procs() {
		kib, err := p.peakRSSKiB()
		if err != nil {
			return nil, err
		}
		m.rssKiB += kib
	}
	bytes1, err := dirBytes(s.dataDir)
	if err != nil {
		return nil, err
	}
	logged1, err := loggedQueries(ctx, s.primaryURL)
	if err != nil {
		return nil, err
	}
	m.logBytes, m.logged = bytes1-bytes0, logged1-logged0
	if s.proxy != nil {
		if m.proxy, err = newHTTPClient(s.proxyAdminURL, false).GetProxyStatus(ctx); err != nil {
			return nil, err
		}
	}

	for _, r := range recs {
		if r.done.IsZero() {
			continue
		}
		m.attempted++
		if r.err != nil {
			m.failed++
			continue
		}
		m.byOp[r.op.Kind] = append(m.byOp[r.op.Kind], r.latency)
		m.service[r.op.Kind] = append(m.service[r.op.Kind], ms(r.done.Sub(r.sent)))
		if r.idle {
			m.late = append(m.late, r.late)
		}
	}
	if m.attempted != len(ops) {
		m.failf("only %d of %d scheduled operations ran", m.attempted, len(ops))
	}
	if late := m.late.percentile(0.99); late > maxLateMS {
		m.failf("generator fell behind: late p99 %.2f ms > %d ms; run invalid", late, maxLateMS)
	}
	m.check(ctx, spec, s, logged0)
	return m, nil
}

func cqmsCPU(s *system) (time.Duration, error) {
	var total time.Duration
	for _, p := range s.procs() {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// pollLag samples the follower's reported lag every 100 ms until stopped.
func pollLag(ctx context.Context, s *system, m *measurement) (stop func()) {
	c := newHTTPClient(s.followerURL, true)
	done := make(chan struct{})
	finished := make(chan struct{})
	var lag samples
	go func() {
		defer close(finished)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if st, err := c.ReplicationStatus(ctx); err == nil && st.LagSeconds >= 0 {
					lag = append(lag, st.LagSeconds*1000)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		m.lag = lag
	}
}

// check runs the output checks of the window.
func (m *measurement) check(ctx context.Context, spec workloadSpec, s *system, logged0 int) {
	c := newHTTPClient(s.primaryURL, false)
	var submits []opRecord
	for _, r := range m.recs {
		if r.err != nil || r.done.IsZero() {
			continue
		}
		switch r.op.Kind {
		case opSubmit:
			submits = append(submits, r)
		case opSearch:
			kw := strings.ToLower(r.op.Arg)
			for _, match := range r.result.([]server.MatchDTO) {
				q := match.Query
				if !strings.Contains(strings.ToLower(q.Text), kw) {
					m.failf("search %q matched query %d without the keyword", r.op.Arg, q.ID)
				}
				// Every logged query is group-visible, so a match is visible
				// only to its owner or a member of its group.
				if q.User != r.op.userName() && q.Group != r.op.group() {
					m.failf("search by %s returned query %d of %s/%s it cannot see", r.op.userName(), q.ID, q.User, q.Group)
				}
			}
		case opComplete:
			m.completes++
			if r.result.(int) == 0 {
				m.emptyCompletes++
			}
		}
	}
	// Read a sample of acknowledged submits back by ID.
	step := len(submits)/readbackSample + 1
	for i := 0; i < len(submits); i += step {
		r := submits[i]
		id := r.result.(int64)
		q, err := c.As(r.op.userName(), r.op.group()).GetQuery(ctx, id)
		if err != nil {
			m.failf("reading back query %d: %v", id, err)
			continue
		}
		if q.Text != r.op.Arg || q.User != r.op.userName() {
			m.failf("query %d reads back as %q by %s, submitted %q by %s", id, q.Text, q.User, r.op.Arg, r.op.userName())
		}
	}
	if !spec.capture {
		if want := len(submits); m.logged != want {
			m.failf("primary logged %d queries in the window, %d submits were acknowledged", m.logged, want)
		}
		return
	}
	completed := len(m.byOp[opStmt])
	if m.logged != completed {
		m.failf("primary logged %d queries, the client saw %d statements complete", m.logged, completed)
	}
	admin := newHTTPClient(s.primaryURL, true)
	ps, perr := admin.Stats(ctx)
	fs, ferr := newHTTPClient(s.followerURL, true).Stats(ctx)
	if perr != nil || ferr != nil {
		m.failf("reading stats for the replica comparison: %v %v", perr, ferr)
		return
	}
	ps.Status, fs.Status = server.StatusDocDTO{}, server.StatusDocDTO{}
	pj, _ := json.Marshal(ps)
	fj, _ := json.Marshal(fs)
	if string(pj) != string(fj) {
		m.failf("follower stats differ from the primary's after drain:\nprimary  %s\nfollower %s", pj, fj)
	}
}
