package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/storage"
)

// reencodedTail is the pre-index ReadTail algorithm, kept as the oracle:
// decode every frame of every segment from offset 0 and re-encode the ones
// past the cursor until the budget is spent.
func reencodedTail(t *testing.T, l *Log, after uint64, maxBytes int64) []byte {
	t.Helper()
	segs, err := listSegments(l.dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].FirstSeq-1 <= after {
			continue
		}
		err := readSegment(filepath.Join(l.dir, seg.Name), 0, after, func(seq uint64, frame []byte) error {
			out = appendFrame(out, seq, frame[headerBytes:])
			if int64(len(out)) >= maxBytes {
				return errTailFull
			}
			return nil
		})
		if errors.Is(err, errTailFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestReadTailSeekMatchesReencode: the indexed, copy-the-disk-bytes
// ReadTail returns exactly the bytes the old decode/re-encode path did, for
// cursors in a sealed segment, in the active segment, on segment boundaries
// and at the tip, with budgets that cut batches mid-segment — both on the
// log that wrote the segments and after a reopen, where sealed segments are
// indexed lazily.
func TestReadTailSeekMatchesReencode(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Sync: SyncOff, SegmentBytes: 8 << 10}
	l, err := OpenLog(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 1; i <= n; i++ {
		// Varying sizes so index marks fall at irregular offsets.
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 5+i%97)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(l *Log) {
		t.Helper()
		segs, err := l.Segments()
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 4 {
			t.Fatalf("only %d segments", len(segs))
		}
		cursors := []uint64{0, 1, indexSpacing - 1, indexSpacing, indexSpacing + 1, n - 10, n - 1, n}
		for _, s := range segs[1:] {
			cursors = append(cursors, s.FirstSeq-2, s.FirstSeq-1, s.FirstSeq, s.FirstSeq+indexSpacing)
		}
		for _, after := range cursors {
			for _, budget := range []int64{1, 100, 3000, 20 << 10, 1 << 30} {
				var got bytes.Buffer
				last, records, err := l.ReadTail(after, budget, &got)
				if err != nil {
					t.Fatalf("ReadTail(%d, %d): %v", after, budget, err)
				}
				want := reencodedTail(t, l, after, budget)
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("ReadTail(%d, %d): %d bytes, want %d identical bytes", after, budget, got.Len(), len(want))
				}
				if records > 0 && last != after+uint64(records) {
					t.Fatalf("ReadTail(%d, %d) = last %d after %d records", after, budget, last, records)
				}
			}
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(l)
}

// blockingWriter blocks every Write until release is closed.
type blockingWriter struct {
	entered chan struct{}
	release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	select {
	case w.entered <- struct{}{}:
	default:
	}
	<-w.release
	return len(p), nil
}

// TestReadTailSlowWriterDoesNotBlockAppend: a follower that stops reading
// mid-response must not stall the primary's group committer, so ReadTail
// may not hold the I/O lock while it writes.
func TestReadTailSlowWriterDoesNotBlockAppend(t *testing.T) {
	l, err := OpenLog(Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	w := &blockingWriter{entered: make(chan struct{}, 1), release: make(chan struct{})}
	tailDone := make(chan error, 1)
	go func() {
		_, _, err := l.ReadTail(0, 1<<20, w)
		tailDone <- err
	}()
	<-w.entered
	appended := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte("while the reader is stuck"))
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(w.release) // let the deferred Close drain before failing
		t.Fatal("Append blocked behind a stalled ReadTail writer")
	}
	close(w.release)
	if err := <-tailDone; err != nil {
		t.Fatal(err)
	}
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgedFrame is a frame header declaring a 200 MiB payload followed by
// only sent bytes of it.
func forgedFrame(sent int) []byte {
	b := make([]byte, headerBytes, headerBytes+sent)
	binary.LittleEndian.PutUint32(b[0:4], 200<<20)
	binary.LittleEndian.PutUint64(b[8:16], 1)
	return append(b, bytes.Repeat([]byte{'x'}, sent)...)
}

// TestForgedFrameLengthAllocation: a frame whose length field promises far
// more than arrives costs memory in proportion to the bytes received, not
// the declared length, on every framed decoder: the segment reader, the
// replication stream and the streamed snapshot.
func TestForgedFrameLengthAllocation(t *testing.T) {
	decoders := map[string]func(io.Reader) error{
		"readFrame": func(r io.Reader) error {
			_, _, err := readFrame(bufio.NewReaderSize(r, 64<<10), nil)
			return err
		},
		"ReadFrames": func(r io.Reader) error {
			return ReadFrames(r, func(uint64, []byte) error { return nil })
		},
		"DecodeSnapshot": func(r io.Reader) error {
			_, _, _, err := DecodeSnapshot(r)
			return err
		},
	}
	for name, decode := range decoders {
		for _, sent := range []int{1 << 10, 1 << 20} {
			data := forgedFrame(sent)
			var err error
			alloc := allocatedBy(func() { err = decode(bytes.NewReader(data)) })
			if err == nil {
				t.Fatalf("%s accepted a truncated frame", name)
			}
			// Fixed reader buffers (at most 1 MiB) plus a small multiple of
			// the bytes received (the race detector's runtime allocates
			// more); the declared 200 MiB would dwarf it.
			if limit := uint64(4<<20 + 8*sent); alloc > limit {
				t.Errorf("%s allocated %d bytes for %d received (limit %d)", name, alloc, sent, limit)
			}
		}
	}
}

// TestMixedFormatRecovery: a data directory written by the legacy JSON
// writer — JSON mutation frames and a JSON snapshot — recovers to the same
// state, takes binary appends on top of the JSON segments, and recovers
// again to the same state, before and after a binary snapshot.
func TestMixedFormatRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SyncPolicy: "off", SegmentBytes: 16 << 10}

	// The legacy writer: every mutation JSON-encoded into the log, the
	// snapshot a JSON document without sidecars.
	want := storage.NewStore()
	legacy, err := OpenLog(Options{Dir: dir, Sync: SyncOff, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	want.SetMutationHook(func(m *storage.Mutation) {
		b, err := json.Marshal(m)
		if err != nil {
			t.Error(err)
		}
		if _, err := legacy.AppendAsync(b); err != nil {
			t.Error(err)
		}
	})
	buildStore(t, want, 40)
	var snapSeq uint64
	st := want.StateWith(func() { snapSeq = legacy.LastSeq() })
	doc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, snapSeq, doc); err != nil {
		t.Fatal(err)
	}
	buildStore(t, want, 30)
	legacyLast := legacy.LastSeq()
	want.SetMutationHook(nil)
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	open := func() (*storage.Store, *Manager, *RecoveryInfo) {
		t.Helper()
		got := storage.NewStore()
		mgr, info, err := Open(got, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got, mgr, info
	}
	got, mgr, info := open()
	if info.SnapshotSeq != snapSeq || info.Replayed != int(legacyLast-snapSeq) {
		t.Fatalf("recovery = snapshot %d + %d replayed, want %d + %d", info.SnapshotSeq, info.Replayed, snapSeq, legacyLast-snapSeq)
	}
	assertStoresEqual(t, want, got)

	// New appends go on in binary, behind the JSON records.
	buildStore(t, want, 25)
	buildStore(t, got, 25)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	formats := map[byte]int{}
	if err := mgr.log.Replay(0, func(seq uint64, payload []byte) error {
		if seq > legacyLast && payload[0] != 0x01 || seq <= legacyLast && payload[0] != '{' {
			return fmt.Errorf("record %d starts with %q", seq, payload[0])
		}
		formats[payload[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if formats['{'] == 0 || formats[0x01] == 0 {
		t.Fatalf("log formats %v, want both JSON and binary records", formats)
	}
	got, mgr, _ = open()
	assertStoresEqual(t, want, got)

	// A binary snapshot over the mixed log.
	if _, _, _, err := mgr.Compact(); err != nil {
		t.Fatal(err)
	}
	buildStore(t, want, 5)
	buildStore(t, got, 5)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	got, mgr, info = open()
	defer mgr.Close()
	if info.SnapshotSeq <= legacyLast {
		t.Fatalf("recovered from snapshot %d, want the binary one past %d", info.SnapshotSeq, legacyLast)
	}
	assertStoresEqual(t, want, got)
}
