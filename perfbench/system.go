package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/workload"
)

// Server settings shared by every cqms-server the benchmark starts, the
// fixture server included. The background intervals exceed any run, so
// no mining, maintenance or snapshot pass lands in a measured window: every
// window holds the same number of background passes, zero.
const (
	serverRows      = 500
	dataSeed        = 1
	backgroundEvery = "1h"
)

// The fixture is the seeded workload.Generate trace of fixtureUsers users
// with fixtureSessions sessions each, submitted in batches, with a snapshot
// two thirds of the way through and a mining pass at the end.
const (
	fixtureSeed     = 1
	fixtureUsers    = 100
	fixtureSessions = 20
)

// env locates the checkout and the benchmark's build directory in it.
type env struct {
	root    string // repository root, the working directory
	build   string // .bench_build under root
	bin     string // built CQMS binaries
	runs    string // per-run data directories, removed after each run
	traces  string // span files of traced runs
	runID   string // unique per invocation
	scratch []string
}

func newEnv() (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "cqms-server")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root: root, build: build,
		bin:    filepath.Join(build, "bin"),
		runs:   filepath.Join(build, "runs"),
		traces: filepath.Join(build, "traces"),
		runID:  fmt.Sprintf("%d", os.Getpid()),
	}
	for _, d := range []string{e.bin, e.runs, e.traces} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildBinaries compiles the checkout's own cqms-server and cqms-proxy.
func (e *env) buildBinaries(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(os.PathSeparator),
		"./cmd/cqms-server", "./cmd/cqms-proxy")
	cmd.Dir = e.root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building CQMS binaries: %w", err)
	}
	return nil
}

// newRunDir makes a fresh directory for one system's data and logs.
func (e *env) newRunDir(label string) (string, error) {
	dir := filepath.Join(e.runs, fmt.Sprintf("%s-%s", e.runID, label))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	e.scratch = append(e.scratch, dir)
	return dir, nil
}

// cleanup removes every run directory this invocation made.
func (e *env) cleanup() {
	for _, d := range e.scratch {
		_ = os.RemoveAll(d)
	}
}

func serverArgs(addr string) []string {
	return []string{
		"-addr", addr, "-rows", fmt.Sprint(serverRows), "-seed", fmt.Sprint(dataSeed),
		"-replay-users", "0", "-sync", "always", "-access-log=false", "-slow-request", "0",
		"-mine-every", backgroundEvery, "-maintain-every", backgroundEvery,
		"-snapshot-every", backgroundEvery,
	}
}

// fixtureName names the fixture a cqms-server binary with the given SHA-256
// builds. The binary's hash is part of the name, so a fixture written by one
// build of the code is never read by another: a change to the log or
// snapshot format is measured on its own format.
func fixtureName(serverSHA256 string) string {
	return fmt.Sprintf("u%d-s%d-seed%d-%s", fixtureUsers, fixtureSessions, fixtureSeed, serverSHA256)
}

// fileSHA256 returns the hex SHA-256 of a file's contents.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ensureFixture returns the data directory of the prepared query log,
// building it on first use. It is cached under the build directory per
// fixture seed, shape and cqms-server binary, so every run of one build
// starts from the same bytes, written by that build's own code. Fixtures of
// other builds are removed when a new one is made.
func (e *env) ensureFixture(ctx context.Context) (string, error) {
	sum, err := fileSHA256(filepath.Join(e.bin, "cqms-server"))
	if err != nil {
		return "", err
	}
	name := fixtureName(sum)
	parent := filepath.Join(e.build, "fixture")
	dir := filepath.Join(parent, name)
	data := filepath.Join(dir, "data")
	if _, err := os.Stat(filepath.Join(dir, "complete")); err == nil {
		return data, nil
	}
	tmp := dir + ".tmp" + e.runID
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	start := time.Now()
	if err := e.buildFixture(ctx, tmp); err != nil {
		_ = os.RemoveAll(tmp)
		return "", fmt.Errorf("building fixture: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	stale, err := os.ReadDir(parent)
	if err != nil {
		return "", err
	}
	for _, d := range stale {
		if d.Name() != name {
			_ = os.RemoveAll(filepath.Join(parent, d.Name()))
		}
	}
	logf("fixture %s built in %.1fs", name, time.Since(start).Seconds())
	return data, nil
}

func (e *env) buildFixture(ctx context.Context, dir string) error {
	addr, err := freePort()
	if err != nil {
		return err
	}
	args := append(serverArgs(addr), "-data-dir", filepath.Join(dir, "data"))
	p, err := startProc("fixture-server", filepath.Join(e.bin, "cqms-server"), args, filepath.Join(dir, "server.log"))
	if err != nil {
		return err
	}
	defer p.stop()
	base := "http://" + addr
	if err := waitServing(ctx, p, addr, base+"/v1/replication/status", time.Minute); err != nil {
		return err
	}
	cfg := workload.DefaultConfig()
	cfg.Seed = fixtureSeed
	cfg.Users = fixtureUsers
	cfg.SessionsPerUser = fixtureSessions
	trace := workload.Generate(cfg)
	c := client.New(base)
	admin := client.New(base, client.WithAdmin())
	snapshotAt := len(trace.Queries) * 2 / 3
	snapshotted := false
	for i := 0; i < len(trace.Queries); {
		// One batch per run of a single user's queries: the principal rides
		// in the request headers.
		q := trace.Queries[i]
		j := i
		var batch []server.SubmitParams
		for j < len(trace.Queries) && trace.Queries[j].User == q.User && len(batch) < server.MaxBatchQueries {
			batch = append(batch, server.SubmitParams{SQL: trace.Queries[j].SQL, Group: q.Group, Visibility: "group"})
			j++
		}
		resp, err := c.As(q.User, q.Group).SubmitBatch(ctx, batch)
		if err != nil {
			return err
		}
		for _, item := range resp.Results {
			if item.Error != nil {
				return fmt.Errorf("fixture submit rejected: %s", item.Error.Message)
			}
		}
		i = j
		if !snapshotted && i >= snapshotAt {
			if _, err := admin.LogBackup(ctx); err != nil {
				return err
			}
			snapshotted = true
		}
	}
	if _, err := admin.Mine(ctx); err != nil {
		return err
	}
	p.stop()
	if p.err != nil {
		return fmt.Errorf("fixture server exit: %v", p.err)
	}
	return nil
}

// system is one launched CQMS topology: a primary, and for capture a
// follower and a capture proxy.
type system struct {
	dataDir  string
	primary  *proc
	follower *proc
	proxy    *proc

	primaryURL, followerURL, proxyAdminURL, pgAddr string

	// setup is launch of the first process to every process serving (and
	// the follower caught up); bootstrap is the follower's share of it.
	setup, bootstrap time.Duration
}

func (s *system) procs() []*proc {
	var out []*proc
	for _, p := range []*proc{s.primary, s.follower, s.proxy} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// stop stops the processes in reverse start order and waits for each.
func (s *system) stop() {
	ps := s.procs()
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// launch starts the workload's topology on a fresh copy of the fixture and
// times it until every process serves.
func (e *env) launch(ctx context.Context, spec workloadSpec, fixture, label string) (*system, error) {
	dir, err := e.newRunDir(label)
	if err != nil {
		return nil, err
	}
	s := &system{dataDir: filepath.Join(dir, "data")}
	if spec.fixture {
		if err := copyDir(fixture, s.dataDir); err != nil {
			return nil, fmt.Errorf("copying fixture: %w", err)
		}
	}
	addrs := make([]string, 5)
	for i := range addrs {
		if addrs[i], err = freePort(); err != nil {
			return nil, err
		}
	}
	s.primaryURL = "http://" + addrs[0]
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()

	start := time.Now()
	s.primary, err = startProc("primary", filepath.Join(e.bin, "cqms-server"),
		append(serverArgs(addrs[0]), "-data-dir", s.dataDir), filepath.Join(dir, "primary.log"))
	if err != nil {
		return nil, err
	}
	if err := waitServing(ctx, s.primary, addrs[0], s.primaryURL+"/v1/replication/status", 2*time.Minute); err != nil {
		return nil, err
	}
	if spec.capture {
		fstart := time.Now()
		s.followerURL = "http://" + addrs[1]
		s.follower, err = startProc("follower", filepath.Join(e.bin, "cqms-server"),
			append(serverArgs(addrs[1]), "-follow", s.primaryURL), filepath.Join(dir, "follower.log"))
		if err != nil {
			return nil, err
		}
		if err := waitServing(ctx, s.follower, addrs[1], s.followerURL+"/v1/replication/status", 2*time.Minute); err != nil {
			return nil, err
		}
		if err := waitCaughtUp(ctx, s, 0, 2*time.Minute); err != nil {
			return nil, err
		}
		s.bootstrap = time.Since(fstart)
		s.pgAddr = addrs[2]
		s.proxyAdminURL = "http://" + addrs[3]
		s.proxy, err = startProc("proxy", filepath.Join(e.bin, "cqms-proxy"), []string{
			"-listen", addrs[2], "-admin", addrs[3], "-fake-backend", "-server", s.primaryURL,
		}, filepath.Join(dir, "proxy.log"))
		if err != nil {
			return nil, err
		}
		if err := waitServing(ctx, s.proxy, addrs[3], s.proxyAdminURL+"/v1/proxy/status", time.Minute); err != nil {
			return nil, err
		}
	}
	s.setup = time.Since(start)
	ok = true
	return s, nil
}

// waitCaughtUp polls until the follower has applied everything the primary
// has appended and, when wantQueries is positive, both hold that many
// queries. It polls every 5 ms, which bounds the timing error.
func waitCaughtUp(ctx context.Context, s *system, wantQueries int, timeout time.Duration) error {
	primary := client.New(s.primaryURL, client.WithAdmin())
	follower := client.New(s.followerURL, client.WithAdmin())
	deadline := time.Now().Add(timeout)
	for {
		ps, perr := primary.ReplicationStatus(ctx)
		fs, ferr := follower.ReplicationStatus(ctx)
		if perr == nil && ferr == nil && ps.AppliedSeq > 0 && fs.AppliedSeq == ps.AppliedSeq {
			if wantQueries <= 0 {
				return nil
			}
			pq, perr := primary.Stats(ctx)
			fq, ferr := follower.Stats(ctx)
			if perr == nil && ferr == nil && pq.Queries == wantQueries && fq.Queries == wantQueries {
				// Re-check the sequence: a batch may have landed between the
				// two status reads.
				if ps2, err := primary.ReplicationStatus(ctx); err == nil && ps2.AppliedSeq == fs.AppliedSeq {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after %s (primary %v, follower %v)", timeout, perr, ferr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
