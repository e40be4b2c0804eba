package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Replication streaming: the primary serves its log tail and newest snapshot
// as raw CRC frames (exactly the on-disk framing, see appendFrame), so a
// follower can bootstrap from the snapshot and then pull records with
// sequence > its applied cursor. The sequence number is the resume cursor:
// a response's last frame sequence is passed back verbatim as the next
// request's `after`, mirroring the v1 pagination contract's opaque-cursor
// round-trip.

// ErrCompacted reports that records at the requested cursor have been
// compacted away; the caller must re-bootstrap from a newer snapshot.
var ErrCompacted = errors.New("wal: records at cursor compacted away; bootstrap from a newer snapshot")

// errTailFull ends a ReadTail segment walk once the byte budget is spent.
var errTailFull = errors.New("wal: tail budget exhausted")

// ReadTail writes every record with sequence > after, in order, to w as CRC
// frames, stopping after the record that crosses maxBytes (so at least one
// record is always sent when any is available; frames are never split). It
// returns the last sequence written and the number of records. A torn tail
// in the newest segment ends the read cleanly, like Replay. If the records
// just past the cursor have been compacted away it returns ErrCompacted.
//
// The frames are the on-disk bytes, CRC-checked as they are copied, and the
// read enters each segment at the offset-index mark nearest the cursor, so
// a poll near the tip costs the bytes it serves, not the segment's size.
// The I/O lock is held only to pick the segment, open it and capture its
// valid end; the file read and the writes to w run without it, so a slow
// reader never stalls the group committer.
func (l *Log) ReadTail(after uint64, maxBytes int64, w io.Writer) (last uint64, records int, err error) {
	if err := l.waitWritten(); err != nil {
		return 0, 0, err
	}
	var (
		sent int64
		seg  tailSegment
		ok   bool
	)
	for first := true; ; first = false {
		seg, ok, err = l.openTailSegment(after, seg.first, first)
		if err != nil || !ok {
			return last, records, err
		}
		err = seg.read(l, after, func(seq uint64, frame []byte) error {
			if _, err := w.Write(frame); err != nil {
				return err
			}
			last, records = seq, records+1
			if sent += int64(len(frame)); sent >= maxBytes {
				return errTailFull
			}
			return nil
		})
		seg.f.Close()
		switch {
		case errors.Is(err, errTailFull):
			return last, records, nil
		case errors.Is(err, errTorn):
			if seg.newest {
				return last, records, nil
			}
			return last, records, fmt.Errorf("wal: segment %s: %w", seg.name, err)
		case err != nil:
			return last, records, err
		case seg.newest:
			return last, records, nil
		}
	}
}

// tailSegment is one segment opened for a tail read, with its valid end and
// offset-index marks captured under ioMu.
type tailSegment struct {
	f      *os.File
	name   string
	first  uint64
	end    int64
	marks  []frameMark
	newest bool
}

// openTailSegment opens the segment a tail read continues in: on the first
// step the one holding the first record past the cursor, afterwards the
// segment following the one first names. ok is false when there is no such
// segment (compaction removed the segment just read, so the caller returns
// what it has sent and the next read reports ErrCompacted).
func (l *Log) openTailSegment(after, prev uint64, first bool) (tailSegment, bool, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return tailSegment{}, false, err
	}
	var i int
	if first {
		if len(segs) > 0 && segs[0].FirstSeq > after+1 {
			return tailSegment{}, false, ErrCompacted
		}
		// The last segment starting at or before after+1.
		i = sort.Search(len(segs), func(i int) bool { return segs[i].FirstSeq > after+1 }) - 1
	} else {
		i = sort.Search(len(segs), func(i int) bool { return segs[i].FirstSeq >= prev })
		if i == len(segs) || segs[i].FirstSeq != prev {
			return tailSegment{}, false, nil
		}
		i++
	}
	if i < 0 || i >= len(segs) {
		return tailSegment{}, false, nil
	}
	info := segs[i]
	f, err := os.Open(filepath.Join(l.dir, info.Name))
	if err != nil {
		return tailSegment{}, false, fmt.Errorf("wal: reading segment: %w", err)
	}
	seg := tailSegment{f: f, name: info.Name, first: info.FirstSeq, end: info.Bytes, newest: i == len(segs)-1}
	if info.FirstSeq == l.segStart {
		// The active segment: only frames the committer finished writing.
		seg.end = l.segBytes
	}
	if x := l.index[info.FirstSeq]; x != nil {
		seg.marks = x.marks
	}
	return seg, true, nil
}

// read streams the segment's frames with sequence > after to fn, entering
// at the index mark nearest the cursor. A sealed segment read for the first
// time is indexed first (one scan, kept for every later read).
func (s *tailSegment) read(l *Log, after uint64, fn func(seq uint64, frame []byte) error) error {
	if s.marks == nil {
		idx, _, _, err := indexFrames(io.NewSectionReader(s.f, 0, s.end))
		if err != nil {
			return err
		}
		l.ioMu.Lock()
		if _, ok := l.index[s.first]; !ok && s.first != l.segStart {
			l.index[s.first] = idx
		}
		l.ioMu.Unlock()
		s.marks = idx.marks
	}
	off := seekMark(s.marks, after)
	return eachFrame(io.NewSectionReader(s.f, off, s.end-off), after, fn)
}

// ReadFrames decodes a stream of CRC frames (a ReadTail response body) and
// hands each record to fn in order; the payload is only valid for the
// duration of fn. A clean EOF ends the stream; a partial or corrupt frame is
// an error — over the network there is no torn-tail tolerance, a damaged
// stream must be refetched.
func ReadFrames(r io.Reader, fn func(seq uint64, payload []byte) error) error {
	err := eachFrame(r, 0, func(seq uint64, frame []byte) error {
		return fn(seq, frame[headerBytes:])
	})
	if errors.Is(err, errTorn) {
		return fmt.Errorf("wal: replication stream: %w", err)
	}
	return err
}

// DecodeSnapshot parses a streamed snapshot document (the raw bytes of a
// snapshot file: one store-state frame plus zero or more sidecar frames, all
// carrying the covered sequence). Unlike the on-disk reader it is strict: a
// torn or foreign frame anywhere is an error, because a network transfer
// that tears mid-body must be retried, not partially applied.
func DecodeSnapshot(r io.Reader) (seq uint64, payload []byte, sidecars []SidecarSection, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	seq, frame, err := readFrame(br, nil)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wal: replication snapshot: %w", err)
	}
	for {
		scSeq, scFrame, err := readFrame(br, nil)
		if err == io.EOF {
			return seq, frame[headerBytes:], sidecars, nil
		}
		if err != nil {
			return 0, nil, nil, fmt.Errorf("wal: replication snapshot sidecar: %w", err)
		}
		if scSeq != seq {
			return 0, nil, nil, fmt.Errorf("wal: replication snapshot sidecar: sequence %d != %d", scSeq, seq)
		}
		sc, err := decodeSidecar(scFrame[headerBytes:])
		if err != nil {
			return 0, nil, nil, err
		}
		sidecars = append(sidecars, sc)
	}
}

// LastSeq returns the highest WAL sequence assigned to an appended mutation.
func (m *Manager) LastSeq() uint64 { return m.lastSeq.Load() }

// SnapshotSeq returns the log sequence covered by the newest snapshot taken
// by this manager (0 before the first snapshot).
func (m *Manager) SnapshotSeq() uint64 { return m.snapshotSeq.Load() }

// ReadTail streams CRC-framed records with sequence > after to w; see
// Log.ReadTail for the contract.
func (m *Manager) ReadTail(after uint64, maxBytes int64, w io.Writer) (uint64, int, error) {
	return m.log.ReadTail(after, maxBytes, w)
}

// OpenLatestSnapshot opens the newest snapshot document for streaming; see
// the package OpenLatestSnapshot function for the contract.
func (m *Manager) OpenLatestSnapshot() (io.ReadCloser, uint64, bool, error) {
	return OpenLatestSnapshot(m.cfg.Dir)
}

// OpenLatestSnapshot opens the newest readable snapshot's raw bytes and
// returns the log sequence it covers, so a caller can announce the sequence
// before streaming the body. ok is false when no snapshot exists yet (the
// follower then replays the whole log from sequence 0). A snapshot that fails
// validation is skipped in favour of the next older one, matching
// LatestSnapshotWithSidecars; the returned handle stays readable even if
// compaction unlinks the file mid-transfer.
func OpenLatestSnapshot(dir string) (r io.ReadCloser, seq uint64, ok bool, err error) {
	names, err := listSnapshots(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, false, nil
		}
		return nil, 0, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		seq, _, _, err := readSnapshot(path)
		if err != nil {
			continue // corrupt snapshot: fall back to an older one
		}
		f, err := os.Open(path)
		if err != nil {
			continue // compacted away between listing and open
		}
		return f, seq, true, nil
	}
	return nil, 0, false, nil
}
