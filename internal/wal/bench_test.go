package wal

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkLogAppend measures the raw frame-append path in isolation:
// sequence assignment plus encoding into the pending buffer, with the
// committer draining in the background. Under SyncOff nothing waits on
// durability, so allocs/op here is the per-record allocation cost of
// Log.Append itself — the group-commit refactor keeps it at zero (the
// pending buffer and the frame header are reused across appends).
func BenchmarkLogAppend(b *testing.B) {
	l, err := OpenLog(testOptions(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte(`{"op":"put","record":{"id":1,"text":"SELECT * FROM runs WHERE quality > 0.9"}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReadTail measures one replication poll near the tip of a busy
// segment: a follower asking for the last few records of an active segment
// holding 30k frames. The offset index makes it cost the bytes served, not
// the segment's size.
func BenchmarkReadTail(b *testing.B) {
	const frames = 30000
	l, err := OpenLog(Options{Dir: b.TempDir(), Sync: SyncOff, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 900)
	for i := 0; i < frames; i++ {
		if _, err := l.AppendAsync(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
	after := l.LastSeq() - 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, err := l.ReadTail(after, 1<<20, io.Discard); err != nil || n != 10 {
			b.Fatalf("ReadTail = %d records, %v", n, err)
		}
	}
}
