package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/workload"
)

// Operation kinds. The first four are HTTP calls on the v1 API; stmt is a
// simple-protocol statement sent through cqms-proxy.
const (
	opSubmit   = "submit"
	opSearch   = "search"
	opComplete = "complete"
	opStats    = "stats"
	opStmt     = "stmt"
)

// population is how many distinct users the workloads draw from.
const population = 10000

// workloadSpec describes one named workload: its open-loop arrival rate, its
// operation mix and how users are drawn.
type workloadSpec struct {
	name string
	// rate is the Poisson arrival rate in operations per second.
	rate float64
	// mix maps operation kind to its share of arrivals.
	mix map[string]float64
	// skew is the Zipf exponent of user popularity; 0 draws users uniformly.
	skew float64
	// fixture starts the primary from the prepared query log instead of an
	// empty one.
	fixture bool
	// capture adds a follower and a capture proxy, and sends the statements
	// over the Postgres wire protocol.
	capture bool
}

var workloads = []workloadSpec{
	{
		name: "ingest",
		rate: 100, mix: map[string]float64{opSubmit: 1},
	},
	{
		name: "explore",
		rate: 100, skew: 1.2, fixture: true,
		mix: map[string]float64{opSearch: 0.30, opComplete: 0.35, opStats: 0.20, opSubmit: 0.15},
	},
	{
		name: "capture",
		rate: 100, fixture: true, capture: true,
		mix: map[string]float64{opStmt: 1},
	},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// Op is one scheduled operation. Everything a worker needs is drawn here, on
// one goroutine from one seeded source, so a seed fixes the whole input.
type Op struct {
	ID int `json:"id"`
	// At is the scheduled send time as an offset from the window start.
	At   time.Duration `json:"at"`
	Kind string        `json:"kind"`
	User int           `json:"user"`
	// Conn pins the operation to one connection (a pgwire session belongs
	// to one user); -1 lets any idle HTTP connection take it.
	Conn int `json:"conn"`
	// Arg is the SQL text (submit, stmt), the keyword (search) or the
	// partial query (complete).
	Arg string `json:"arg,omitempty"`
}

func (o Op) userName() string { return workload.UserName(o.User) }
func (o Op) group() string    { return workload.GroupOf(o.User, population) }

var searchKeywords = []string{
	"watertemp", "salinity", "stars", "sensors", "observations",
	"citylocations", "magnitude", "lake",
}

var completePartials = map[string][]string{
	"limnology": {
		"SELECT * FROM WaterTemp WHERE ",
		"SELECT lake, temp FROM WaterTemp WHERE temp ",
		"SELECT * FROM WaterSalinity WHERE ",
		"SELECT city FROM CityLocations, WaterTemp WHERE ",
	},
	"astro": {
		"SELECT name FROM Stars WHERE ",
		"SELECT * FROM Observations WHERE ",
		"SELECT * FROM Stars, Observations WHERE ",
	},
}

// textSeed seeds the workload.Generate trace the submitted texts come from.
// It is fixed, so every run submits the same multiset of texts and only
// their order, senders and times follow --seed: the engine's cost varies
// by two orders of magnitude between texts, and a fresh draw per seed would
// make the tail depend on how many costly joins a seed happened to pick.
const textSeed = 1

// sqlTexts returns n texts sampled evenly across the seeded trace, so every
// topic and session stage is represented in proportion.
func sqlTexts(n int) []string {
	cfg := workload.DefaultConfig()
	cfg.Seed = textSeed
	cfg.Users = 30
	cfg.SessionsPerUser = 20
	qs := workload.Generate(cfg).Queries
	out := make([]string, n)
	for i := range out {
		out[i] = qs[(i*len(qs)/max(n, 1))%len(qs)].SQL
	}
	return out
}

// pgConns and httpConns cap the connections the generator opens, so the
// generator and the CQMS processes share the two CPUs the benchmark is sized
// for.
const (
	httpConns = 2
	pgConns   = 2
)

// makeSchedule draws the open-loop schedule of one run. The number of
// arrivals is the rate times the window; their times are a Poisson process
// conditioned on that count (sorted uniform draws). The operation kinds
// follow the mix exactly and the inputs cycle through fixed lists, all in a
// seeded order, so runs with different seeds do the same work in a
// different order, from different users at different times. The same seed
// gives the same schedule byte for byte.
func makeSchedule(spec workloadSpec, seed int64, window time.Duration) []Op {
	r := rand.New(rand.NewSource(seed))
	n := int(math.Round(spec.rate * window.Seconds()))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Int63n(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })

	kinds := make([]string, 0, n)
	for _, k := range sortedKeys(spec.mix) {
		for c := int(math.Round(spec.mix[k] * float64(n))); c > 0 && len(kinds) < n; c-- {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, sortedKeys(spec.mix)[0])
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	writes := 0
	for _, k := range kinds {
		if k == opSubmit || k == opStmt {
			writes++
		}
	}
	texts := sqlTexts(writes)
	r.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	var zipf *rand.Zipf
	if spec.skew > 1 {
		zipf = rand.NewZipf(r, spec.skew, 1, population-1)
	}
	// One user per pgwire session: a Postgres connection authenticates once.
	var sessionUsers [pgConns]int
	for i := range sessionUsers {
		sessionUsers[i] = r.Intn(population)
	}
	used := map[string]int{}
	ops := make([]Op, n)
	for i := range ops {
		op := Op{ID: i, At: at[i], Kind: kinds[i], Conn: -1}
		switch {
		case op.Kind == opStmt:
			op.Conn = i % pgConns
			op.User = sessionUsers[op.Conn]
		case zipf != nil:
			op.User = int(zipf.Uint64())
		default:
			op.User = r.Intn(population)
		}
		switch op.Kind {
		case opSubmit, opStmt:
			op.Arg = texts[used[opSubmit]]
			used[opSubmit]++
		case opSearch:
			op.Arg = searchKeywords[used[op.Kind]%len(searchKeywords)]
		case opComplete:
			partials := completePartials[op.group()]
			op.Arg = partials[used[op.group()]%len(partials)]
			used[op.group()]++
		}
		if op.Kind == opSearch {
			used[opSearch]++
		}
		ops[i] = op
	}
	return ops
}
