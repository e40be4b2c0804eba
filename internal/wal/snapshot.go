package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// A snapshot file holds one CRC-framed record (the same framing as log
// records) whose sequence is the last log sequence the snapshot covers and
// whose payload is the serialised store state, optionally followed by
// CRC-framed sidecar sections carrying derived-state checkpoints (see
// sidecar.go). Snapshots are written to a temporary file and renamed into
// place so a crash mid-snapshot leaves the previous snapshot intact.

func snapshotName(seq uint64) string {
	return seqFileName(snapshotPrefix, seq, snapshotSuffix)
}

func parseSnapshotName(name string) (uint64, bool) {
	return parseSeqFileName(name, snapshotPrefix, snapshotSuffix)
}

// WriteSnapshot durably writes a snapshot covering all log records with
// sequence <= seq and returns its path.
func WriteSnapshot(dir string, seq uint64, payload []byte) (string, error) {
	return WriteSnapshotWithSidecars(dir, seq, payload, nil)
}

// WriteSnapshotWithSidecars durably writes a snapshot covering all log
// records with sequence <= seq, followed by one CRC-framed sidecar section
// per entry of sidecars, and returns its path. This package's readers load
// the primary state from the first frame regardless of what follows it (see
// sidecar.go for the cross-version story).
func WriteSnapshotWithSidecars(dir string, seq uint64, payload []byte, sidecars []SidecarSection) (string, error) {
	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("wal: writing snapshot: %w", err)
	}
	_, werr := f.Write(encodeFrame(seq, payload))
	for _, sc := range sidecars {
		if werr != nil {
			break
		}
		_, werr = f.Write(encodeFrame(seq, encodeSidecar(sc)))
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("wal: writing snapshot: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("wal: writing snapshot: %w", err)
	}
	syncDir(dir)
	return path, nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// LatestSnapshot loads the newest readable snapshot in dir, discarding any
// sidecar sections. It returns ok=false when no usable snapshot exists; a
// snapshot whose primary frame fails its CRC check is skipped in favour of
// the next older one.
func LatestSnapshot(dir string) (seq uint64, payload []byte, ok bool, err error) {
	seq, payload, _, ok, err = LatestSnapshotWithSidecars(dir)
	return seq, payload, ok, err
}

// LatestSnapshotWithSidecars loads the newest readable snapshot in dir along
// with every sidecar section that reads back clean. A torn or corrupt
// sidecar tail does not invalidate the snapshot: the primary state and the
// sections before the damage are returned, and derived state whose section
// was lost falls back to a full rebuild.
func LatestSnapshotWithSidecars(dir string) (seq uint64, payload []byte, sidecars []SidecarSection, ok bool, err error) {
	names, err := listSnapshots(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, nil, false, nil
		}
		return 0, nil, nil, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		seq, payload, sidecars, err := readSnapshot(filepath.Join(dir, names[i]))
		if err == nil {
			return seq, payload, sidecars, true, nil
		}
	}
	return 0, nil, nil, false, nil
}

func readSnapshot(path string) (uint64, []byte, []SidecarSection, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	seq, frame, err := readFrame(r, nil)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wal: reading snapshot %s: %w", filepath.Base(path), err)
	}
	// Every further frame is one sidecar section, CRC-checked independently
	// and carrying the same sequence. The first unreadable or foreign frame
	// ends the file: a torn tail costs only the sections at and after the
	// tear, never the primary state.
	var sidecars []SidecarSection
	for {
		scSeq, scFrame, err := readFrame(r, nil)
		if err != nil {
			break
		}
		if scSeq != seq {
			break
		}
		sc, err := decodeSidecar(scFrame[headerBytes:])
		if err != nil {
			break
		}
		sidecars = append(sidecars, sc)
	}
	return seq, frame[headerBytes:], sidecars, nil
}

// RemoveSnapshotsBefore deletes snapshots older than seq, returning how many
// were removed.
func RemoveSnapshotsBefore(dir string, seq uint64) (int, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		s, _ := parseSnapshotName(name)
		if s >= seq {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("wal: pruning snapshots: %w", err)
		}
		removed++
	}
	return removed, nil
}

// listSnapshots returns snapshot file names sorted by ascending sequence.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSnapshotName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := parseSnapshotName(out[i])
		b, _ := parseSnapshotName(out[j])
		return a < b
	})
	return out, nil
}
