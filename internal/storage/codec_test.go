package storage_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestOpCodeTable pins the binary op codes: they are part of the on-disk
// format, so changing one breaks every existing log.
func TestOpCodeTable(t *testing.T) {
	want := []storage.MutationOp{
		storage.OpPut, storage.OpAnnotate, storage.OpSetVisibility, storage.OpDelete,
		storage.OpAssignSession, storage.OpAddEdge, storage.OpMarkInvalid, storage.OpMarkValid,
		storage.OpMarkStale, storage.OpUpdateStats, storage.OpSetSample, storage.OpSetQuality,
		storage.OpReplaceText,
	}
	for i, op := range want {
		b, err := storage.AppendMutation(nil, &storage.Mutation{Op: op})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if b[0] != 0x01 || b[1] != byte(i+1) {
			t.Errorf("%s encodes as version %#x op code %d, want 0x01 and %d", op, b[0], b[1], i+1)
		}
	}
	if _, err := storage.AppendMutation(nil, &storage.Mutation{Op: "bogus"}); err == nil {
		t.Error("an unknown op encoded")
	}
}

// codecMutations replays a generated trace through the profiler and then
// runs every other mutating operation, returning every mutation the store
// emitted and the store itself.
func codecMutations(t *testing.T) ([]*storage.Mutation, *storage.Store) {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 20, 1); err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	var muts []*storage.Mutation
	store.Subscribe("capture", func(m *storage.Mutation) { muts = append(muts, m) }, storage.SubscribeOptions{})
	cfg := workload.DefaultConfig()
	cfg.Users, cfg.SessionsPerUser = 6, 3
	if _, err := workload.Replay(workload.Generate(cfg), profiler.New(eng, store, profiler.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	ids := store.Snapshot().Records(storage.Principal{Admin: true})
	if len(ids) < 10 {
		t.Fatalf("trace logged only %d queries", len(ids))
	}
	id := func(i int) storage.QueryID { return ids[i].ID }
	owner := storage.Principal{User: ids[0].User, Admin: true}
	india := time.FixedZone("", 5*3600+30*60)
	at := time.Date(2026, 3, 1, 9, 30, 15, 123456789, india)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(store.Annotate(id(0), owner, storage.Annotation{Author: "ann", Text: "joins \"Stations\" <ok>", Fragment: "WHERE", At: at}))
	must(store.Annotate(id(0), owner, storage.Annotation{Text: "second, local time", At: at.In(time.Local)}))
	must(store.Annotate(id(1), owner, storage.Annotation{}))
	must(store.SetVisibility(id(1), owner, storage.VisibilityPublic))
	must(store.AssignSession(id(2), 99))
	must(store.AssignSession(id(2), 0))
	must(store.AddEdge(storage.SessionEdge{From: id(2), To: id(3), Type: storage.EdgeInvestigation, Diff: "+ JOIN"}))
	must(store.MarkInvalid(id(3), "schema drift: WaterTemp.depth"))
	must(store.MarkValid(id(3)))
	must(store.MarkStatsStale(id(4), true))
	must(store.MarkStatsStale(id(4), false))
	must(store.UpdateStats(id(4), storage.RuntimeStats{ExecTime: -time.Nanosecond, ResultRows: 1 << 40, Error: "timeout", SchemaVersion: -3, ExecutedAt: at}))
	must(store.UpdateStats(id(5), storage.RuntimeStats{}))
	// Zero-row samples: an empty row list must stay empty (the API renders
	// it as [], not null), and a nil one nil.
	must(store.SetSample(id(5), &storage.OutputSample{Columns: []string{"lake"}, Rows: [][]string{}}))
	must(store.SetSample(id(6), &storage.OutputSample{Columns: []string{}, Rows: [][]string{{}, nil, {""}}, TotalRows: 3, Truncated: true}))
	must(store.SetSample(id(7), &storage.OutputSample{}))
	must(store.SetSample(id(8), nil))
	must(store.SetQuality(id(6), 0.1+0.2))
	must(store.SetQuality(id(7), math.MaxFloat64))
	must(store.SetQuality(id(8), 0))
	repaired, err := storage.NewRecordFromSQL("SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp > 3")
	must(err)
	must(store.ReplaceText(id(8), repaired))
	raw := storage.NewRawRecord("SELEKT ünïcode ☃ FROM", nil)
	raw.IssuedAt = at
	raw.Tables, raw.Aggregates = []string{}, []string{""}
	store.Put(raw)
	must(store.Delete(id(9), owner))
	return muts, store
}

// jsonRoundTrip renders v after a JSON round trip through decode.
func jsonRendering(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBinaryCodecMatchesJSON: for every mutation a generated trace and every
// other store operation emit, and for the resulting store state, the value
// decoded from the binary encoding equals the one decoded from the legacy
// JSON encoding — same JSON rendering, same Go value.
func TestBinaryCodecMatchesJSON(t *testing.T) {
	muts, store := codecMutations(t)
	ops := map[storage.MutationOp]bool{}
	for i, m := range muts {
		ops[m.Op] = true
		legacy, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := storage.DecodeMutation(legacy)
		if err != nil {
			t.Fatalf("mutation %d (%s): legacy decode: %v", i, m.Op, err)
		}
		bin, err := storage.AppendMutation(nil, m)
		if err != nil {
			t.Fatalf("mutation %d (%s): %v", i, m.Op, err)
		}
		fromBinary, err := storage.DecodeMutation(bin)
		if err != nil {
			t.Fatalf("mutation %d (%s): binary decode: %v", i, m.Op, err)
		}
		if got, want := jsonRendering(t, fromBinary), jsonRendering(t, fromJSON); got != want {
			t.Fatalf("mutation %d (%s):\nbinary: %s\njson:   %s", i, m.Op, got, want)
		}
		if !reflect.DeepEqual(fromBinary, fromJSON) {
			t.Fatalf("mutation %d (%s): decoded values differ:\nbinary: %#v\njson:   %#v", i, m.Op, fromBinary, fromJSON)
		}
		if len(bin) >= len(legacy) {
			t.Errorf("mutation %d (%s): binary %d bytes, JSON %d", i, m.Op, len(bin), len(legacy))
		}
	}
	if len(ops) != 13 {
		t.Errorf("exercised %d ops, want all 13: %v", len(ops), ops)
	}

	st := store.State()
	for _, st := range []*storage.StoreState{st, {NextID: 7}, {Records: []*storage.QueryRecord{}, Edges: []storage.SessionEdge{}}} {
		fromJSON, err := storage.DecodeState([]byte(jsonRendering(t, st)))
		if err != nil {
			t.Fatal(err)
		}
		fromBinary, err := storage.DecodeState(storage.AppendState(nil, st))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonRendering(t, fromBinary), jsonRendering(t, fromJSON); got != want {
			t.Fatalf("state:\nbinary: %.500s\njson:   %.500s", got, want)
		}
		if !reflect.DeepEqual(fromBinary, fromJSON) {
			t.Fatal("decoded states differ")
		}
	}
}

// TestDecodeTruncated: every strict prefix of a valid payload, and every
// single-byte corruption of the leading bytes, fails cleanly (no panic).
func TestDecodeTruncated(t *testing.T) {
	muts, store := codecMutations(t)
	var payloads [][]byte
	for _, m := range muts[len(muts)-25:] {
		b, err := storage.AppendMutation(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	st := store.State()
	st.Records = st.Records[:3]
	state := storage.AppendState(nil, st)
	for _, b := range payloads {
		for n := 0; n < len(b); n++ {
			if _, err := storage.DecodeMutation(b[:n]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte mutation decoded", n, len(b))
			}
		}
		if _, err := storage.DecodeMutation(append(b[:len(b):len(b)], 0)); err == nil {
			t.Fatal("a mutation with a trailing byte decoded")
		}
	}
	for n := 0; n < len(state); n++ {
		if _, err := storage.DecodeState(state[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte state decoded", n, len(state))
		}
	}
	// A forged record count far beyond the payload is refused before any
	// allocation is sized by it.
	forged := []byte{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := storage.DecodeState(forged); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("forged record count: err = %v", err)
	}
	if _, err := storage.DecodeMutation([]byte{0x02, 1, 0}); err == nil {
		t.Fatal("an unknown format version decoded")
	}
}

// checkReencode is the fuzz property: a payload that decodes re-encodes to
// a payload that decodes again, to the same value (compared by encoding, so
// NaN scores compare equal).
func checkMutationReencode(t *testing.T, data []byte) {
	m, err := storage.DecodeMutation(data)
	if err != nil {
		return
	}
	b1, err := storage.AppendMutation(nil, m)
	if err != nil {
		t.Fatalf("re-encoding a decoded mutation: %v", err)
	}
	m2, err := storage.DecodeMutation(b1)
	if err != nil {
		t.Fatalf("re-encoded mutation does not decode: %v", err)
	}
	b2, err := storage.AppendMutation(nil, m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-encoded mutation decodes to a different value:\n%x\n%x", b1, b2)
	}
}

func checkStateReencode(t *testing.T, data []byte) {
	st, err := storage.DecodeState(data)
	if err != nil {
		return
	}
	b1 := storage.AppendState(nil, st)
	st2, err := storage.DecodeState(b1)
	if err != nil {
		t.Fatalf("re-encoded state does not decode: %v", err)
	}
	if b2 := storage.AppendState(nil, st2); !bytes.Equal(b1, b2) {
		t.Fatalf("re-encoded state decodes to a different value:\n%x\n%x", b1, b2)
	}
}

// FuzzDecodeMutation: WAL and replication payloads come from disk and from
// the network. Decoding must never panic, and whatever decodes must survive
// a re-encode. The seed corpus under testdata/fuzz holds legacy JSON and
// binary payloads of every op.
func FuzzDecodeMutation(f *testing.F) {
	f.Fuzz(checkMutationReencode)
}

// FuzzDecodeState is FuzzDecodeMutation for snapshot state payloads.
func FuzzDecodeState(f *testing.F) {
	f.Fuzz(checkStateReencode)
}
