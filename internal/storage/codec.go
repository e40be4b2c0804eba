package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"
)

// The persistence codec: one versioned binary encoding for every store
// record the WAL persists or ships — mutation payloads (log frames and the
// replication stream) and snapshot state. It is built on encoding/binary
// varints. The first payload byte is the format version; payloads written
// before the binary format are JSON documents, which always start with '{',
// so both decoders branch on that byte and old logs and snapshots keep
// loading (read-old, write-new). Writers emit only the binary format.
//
//	mutation := 0x01 | op byte | uvarint field mask | present fields in mask-bit order
//	state    := 0x01 | varint nextID | count records | uvarint edge count | edges
//	record   := uvarint body length | body (length 0 encodes a nil record)
//	count    := uvarint n+1, with 0 for a nil slice
//	string   := uvarint length | bytes
//	time     := varint unix seconds | uvarint nanoseconds | varint zone offset seconds
//	float    := uint64 IEEE-754 bits, little-endian
//
// A decoded value equals what JSON decoding of the same value yields: nil
// and empty slices stay distinct, times keep their instant and zone offset
// (offset 0 decodes as UTC, an offset matching the local zone as Local, any
// other as a fixed zone) and carry no monotonic reading, and mutation
// fields JSON omitted when empty decode as their zero value.

// codecVersion is the first byte of every binary payload.
const codecVersion byte = 0x01

// opCodes is the fixed numeric op-code table of the binary format, indexed
// by code. Codes are part of the on-disk format: never renumber or reuse
// one; append new ops at the end.
var opCodes = [...]MutationOp{
	1:  OpPut,
	2:  OpAnnotate,
	3:  OpSetVisibility,
	4:  OpDelete,
	5:  OpAssignSession,
	6:  OpAddEdge,
	7:  OpMarkInvalid,
	8:  OpMarkValid,
	9:  OpMarkStale,
	10: OpUpdateStats,
	11: OpSetSample,
	12: OpSetQuality,
	13: OpReplaceText,
}

// opCode returns the binary code of op (0 for an unknown op).
func opCode(op MutationOp) byte {
	for code, o := range opCodes {
		if o == op && code != 0 {
			return byte(code)
		}
	}
	return 0
}

// Mutation field-mask bits, in encoding order. A clear bit means the field
// holds its zero value (JSON's omitempty) or, for pointers, nil.
const (
	fieldID = 1 << iota
	fieldRecord
	fieldAnnotation
	fieldVisibility
	fieldSessionID
	fieldEdge
	fieldReason
	fieldStale
	fieldStats
	fieldSample
	fieldScore
	fieldsAll = fieldScore<<1 - 1
)

// Record flag bits.
const (
	recValid = 1 << iota
	recStatsStale
	recSample
	recFlagsAll = recSample<<1 - 1
)

// AppendMutation appends the binary encoding of m to dst. It fails only for
// an op outside the op-code table.
func AppendMutation(dst []byte, m *Mutation) ([]byte, error) {
	code := opCode(m.Op)
	if code == 0 {
		return dst, fmt.Errorf("storage: encoding mutation: unknown op %q", m.Op)
	}
	var mask uint64
	set := func(bit uint64, present bool) {
		if present {
			mask |= bit
		}
	}
	set(fieldID, m.ID != 0)
	set(fieldRecord, m.Record != nil)
	set(fieldAnnotation, m.Annotation != nil)
	set(fieldVisibility, m.Visibility != 0)
	set(fieldSessionID, m.SessionID != 0)
	set(fieldEdge, m.Edge != nil)
	set(fieldReason, m.Reason != "")
	set(fieldStale, m.Stale)
	set(fieldStats, m.Stats != nil)
	set(fieldSample, m.Sample != nil)
	set(fieldScore, m.Score != 0)

	dst = append(dst, codecVersion, code)
	dst = binary.AppendUvarint(dst, mask)
	if mask&fieldID != 0 {
		dst = binary.AppendVarint(dst, int64(m.ID))
	}
	if mask&fieldRecord != 0 {
		dst = appendRecord(dst, m.Record)
	}
	if mask&fieldAnnotation != 0 {
		dst = appendAnnotation(dst, m.Annotation)
	}
	if mask&fieldVisibility != 0 {
		dst = binary.AppendVarint(dst, int64(m.Visibility))
	}
	if mask&fieldSessionID != 0 {
		dst = binary.AppendVarint(dst, m.SessionID)
	}
	if mask&fieldEdge != 0 {
		dst = appendEdge(dst, m.Edge)
	}
	if mask&fieldReason != 0 {
		dst = appendString(dst, m.Reason)
	}
	if mask&fieldStats != 0 {
		dst = appendStats(dst, m.Stats)
	}
	if mask&fieldSample != 0 {
		dst = appendSample(dst, m.Sample)
	}
	if mask&fieldScore != 0 {
		dst = appendFloat(dst, m.Score)
	}
	return dst, nil
}

// DecodeMutation parses a WAL payload — binary, or a legacy JSON document —
// back into a mutation.
func DecodeMutation(b []byte) (*Mutation, error) {
	if len(b) > 0 && b[0] == '{' {
		var m Mutation
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("storage: decoding mutation: %w", err)
		}
		if opCode(m.Op) == 0 {
			return nil, fmt.Errorf("storage: decoding mutation: unknown op %q", m.Op)
		}
		return &m, nil
	}
	d, err := newDecoder(b)
	if err != nil {
		return nil, fmt.Errorf("storage: decoding mutation: %w", err)
	}
	// One string copy of the whole payload backs every string field.
	d.window(len(b) - d.p)
	m := &Mutation{}
	code := d.u8()
	if int(code) < len(opCodes) && code != 0 {
		m.Op = opCodes[code]
	} else if d.err == nil {
		d.err = fmt.Errorf("unknown op code %d", code)
	}
	mask := d.uvarint()
	if mask&^fieldsAll != 0 && d.err == nil {
		d.err = fmt.Errorf("unknown field mask %#x", mask)
	}
	if mask&fieldID != 0 {
		m.ID = QueryID(d.varint())
	}
	if mask&fieldRecord != 0 {
		m.Record = d.record()
		if m.Record == nil && d.err == nil {
			d.err = errors.New("empty record")
		}
	}
	if mask&fieldAnnotation != 0 {
		a := d.annotation()
		m.Annotation = &a
	}
	if mask&fieldVisibility != 0 {
		m.Visibility = Visibility(d.varint())
	}
	if mask&fieldSessionID != 0 {
		m.SessionID = d.varint()
	}
	if mask&fieldEdge != 0 {
		e := d.edge()
		m.Edge = &e
	}
	if mask&fieldReason != 0 {
		m.Reason = d.str()
	}
	m.Stale = mask&fieldStale != 0
	if mask&fieldStats != 0 {
		st := d.stats()
		m.Stats = &st
	}
	if mask&fieldSample != 0 {
		m.Sample = d.sample()
	}
	if mask&fieldScore != 0 {
		m.Score = d.float()
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("storage: decoding mutation: %w", err)
	}
	return m, nil
}

// AppendState appends the binary encoding of a snapshot state to dst.
func AppendState(dst []byte, st *StoreState) []byte {
	dst = append(dst, codecVersion)
	dst = binary.AppendVarint(dst, int64(st.NextID))
	dst = appendCount(dst, len(st.Records), st.Records == nil)
	for _, rec := range st.Records {
		if rec == nil {
			dst = append(dst, 0)
			continue
		}
		dst = appendRecord(dst, rec)
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Edges)))
	for i := range st.Edges {
		dst = appendEdge(dst, &st.Edges[i])
	}
	return dst
}

// DecodeState parses a snapshot state payload — binary, or a legacy JSON
// document.
func DecodeState(b []byte) (*StoreState, error) {
	if len(b) > 0 && b[0] == '{' {
		var st StoreState
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("storage: decoding state: %w", err)
		}
		return &st, nil
	}
	d, err := newDecoder(b)
	if err != nil {
		return nil, fmt.Errorf("storage: decoding state: %w", err)
	}
	st := &StoreState{NextID: QueryID(d.varint())}
	if n, ok := d.count(1); ok {
		st.Records = make([]*QueryRecord, n)
		for i := range st.Records {
			st.Records[i] = d.record()
		}
	}
	// An edge is at least four bytes. No edges decode as nil, as the
	// omitempty JSON field did.
	if n := d.uvarint(); n > 0 && d.fits(n, 4) {
		st.Edges = make([]SessionEdge, n)
		for i := range st.Edges {
			st.Edges[i] = d.edge()
		}
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("storage: decoding state: %w", err)
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = appendCount(dst, len(ss), ss == nil)
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendTime(dst []byte, t time.Time) []byte {
	_, offset := t.Zone()
	dst = binary.AppendVarint(dst, t.Unix())
	dst = binary.AppendUvarint(dst, uint64(t.Nanosecond()))
	return binary.AppendVarint(dst, int64(offset))
}

// appendRecord appends a length-prefixed record. The body is written in
// place and shifted right once its length prefix is known.
func appendRecord(dst []byte, q *QueryRecord) []byte {
	start := len(dst)
	dst = binary.AppendVarint(dst, int64(q.ID))
	dst = appendString(dst, q.Text)
	dst = appendString(dst, q.Canonical)
	dst = appendString(dst, q.Template)
	dst = binary.LittleEndian.AppendUint64(dst, q.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, q.ExactHash)
	dst = appendString(dst, q.User)
	dst = appendString(dst, q.Group)
	dst = binary.AppendVarint(dst, int64(q.Visibility))
	dst = appendTime(dst, q.IssuedAt)
	dst = appendStrings(dst, q.Tables)
	dst = appendCount(dst, len(q.Attributes), q.Attributes == nil)
	for _, a := range q.Attributes {
		dst = appendString(dst, a.Attr)
		dst = appendString(dst, a.Rel)
		dst = appendString(dst, a.Clause)
	}
	dst = appendCount(dst, len(q.Predicates), q.Predicates == nil)
	for _, p := range q.Predicates {
		dst = appendString(dst, p.Attr)
		dst = appendString(dst, p.Rel)
		dst = appendString(dst, p.Op)
		dst = appendString(dst, p.Const)
		dst = appendBool(dst, p.IsJoin)
		dst = appendString(dst, p.RightRel)
		dst = appendString(dst, p.RightAttr)
	}
	dst = appendStrings(dst, q.Aggregates)
	dst = appendStrings(dst, q.GroupBy)
	dst = appendStrings(dst, q.Features)
	dst = appendStats(dst, &q.Stats)
	var flags byte
	if q.Valid {
		flags |= recValid
	}
	if q.StatsStale {
		flags |= recStatsStale
	}
	if q.Sample != nil {
		flags |= recSample
	}
	dst = append(dst, flags)
	if q.Sample != nil {
		dst = appendSample(dst, q.Sample)
	}
	dst = appendCount(dst, len(q.Annotations), q.Annotations == nil)
	for i := range q.Annotations {
		dst = appendAnnotation(dst, &q.Annotations[i])
	}
	dst = binary.AppendVarint(dst, q.SessionID)
	dst = appendString(dst, q.InvalidReason)
	dst = appendFloat(dst, q.QualityScore)

	var prefix [binary.MaxVarintLen64]byte
	p := binary.PutUvarint(prefix[:], uint64(len(dst)-start))
	dst = append(dst, prefix[:p]...)
	copy(dst[start+p:], dst[start:len(dst)-p])
	copy(dst[start:], prefix[:p])
	return dst
}

func appendStats(dst []byte, s *RuntimeStats) []byte {
	dst = binary.AppendVarint(dst, int64(s.ExecTime))
	dst = binary.AppendVarint(dst, int64(s.ResultRows))
	dst = binary.AppendVarint(dst, int64(s.ResultColumns))
	dst = appendString(dst, s.Error)
	dst = binary.AppendVarint(dst, s.SchemaVersion)
	return appendTime(dst, s.ExecutedAt)
}

func appendSample(dst []byte, s *OutputSample) []byte {
	dst = appendStrings(dst, s.Columns)
	dst = appendCount(dst, len(s.Rows), s.Rows == nil)
	for _, row := range s.Rows {
		dst = appendStrings(dst, row)
	}
	dst = binary.AppendVarint(dst, int64(s.TotalRows))
	return appendBool(dst, s.Truncated)
}

func appendAnnotation(dst []byte, a *Annotation) []byte {
	dst = appendString(dst, a.Author)
	dst = appendString(dst, a.Text)
	dst = appendString(dst, a.Fragment)
	return appendTime(dst, a.At)
}

func appendEdge(dst []byte, e *SessionEdge) []byte {
	dst = binary.AppendVarint(dst, int64(e.From))
	dst = binary.AppendVarint(dst, int64(e.To))
	dst = binary.AppendVarint(dst, int64(e.Type))
	return appendString(dst, e.Diff)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// decoder reads a binary payload with a sticky error: after the first
// failure every read returns a zero value, and finish reports the error.
// Every length and count is checked against the bytes that remain before
// anything is allocated for it, so a forged length costs nothing.
//
// String fields are sliced out of one string copy of the enclosing record
// (or mutation) instead of being copied one by one: a decoded record holds
// one string allocation however many fields it has.
type decoder struct {
	b   []byte
	p   int
	err error
	// win is a string copy of b[winOff:winOff+len(win)]; strings inside that
	// range are sliced from it.
	win    string
	winOff int
}

func newDecoder(b []byte) (decoder, error) {
	if len(b) == 0 {
		return decoder{}, errors.New("empty payload")
	}
	if b[0] != codecVersion {
		return decoder{}, fmt.Errorf("unknown format version %#x", b[0])
	}
	return decoder{b: b, p: 1}, nil
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or corrupt %s at offset %d", what, d.p)
	}
}

// finish returns the first decode error, or an error for trailing bytes.
func (d *decoder) finish() error {
	if d.err == nil && d.p != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.p)
	}
	return d.err
}

// window makes the next n bytes the string window.
func (d *decoder) window(n int) {
	d.win = string(d.b[d.p : d.p+n])
	d.winOff = d.p
}

// fits reports whether n items of at least minBytes each can fit in the
// bytes that remain, failing the decode when they cannot.
func (d *decoder) fits(n uint64, minBytes int) bool {
	if d.err != nil {
		return false
	}
	if n > uint64(len(d.b)-d.p)/uint64(minBytes) {
		d.fail("count")
		return false
	}
	return true
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.p >= len(d.b) {
		d.fail("byte")
		return 0
	}
	c := d.b[d.p]
	d.p++
	return c
}

func (d *decoder) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool")
		return false
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.p:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.p += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.p:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.p += n
	return v
}

func (d *decoder) intv() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("int")
		return 0
	}
	return int(v)
}

func (d *decoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.p < 8 {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.p:])
	d.p += 8
	return v
}

func (d *decoder) float() float64 { return math.Float64frombits(d.fixed64()) }

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.p) {
		d.fail("string")
		return ""
	}
	start, end := d.p, d.p+int(n)
	d.p = end
	if start >= d.winOff && end <= d.winOff+len(d.win) {
		return d.win[start-d.winOff : end-d.winOff]
	}
	return string(d.b[start:end])
}

// count reads a nil-aware slice count (0 = nil, otherwise n+1) and checks
// it against the remaining bytes for elements of at least minBytes each.
// ok is false for a nil slice and on error.
func (d *decoder) count(minBytes int) (n int, ok bool) {
	c := d.uvarint()
	if c == 0 || !d.fits(c-1, minBytes) {
		return 0, false
	}
	return int(c - 1), true
}

func (d *decoder) strs() []string {
	n, ok := d.count(1)
	if !ok {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) timestamp() time.Time {
	sec := d.varint()
	nsec := d.uvarint()
	offset := d.varint()
	if nsec >= 1e9 || offset != int64(int32(offset)) {
		d.fail("time")
	}
	if d.err != nil {
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	// The zone rule of time.Parse for an RFC 3339 offset, which is what a
	// JSON-decoded time carries.
	if offset == 0 {
		return t.UTC()
	}
	if local := t.In(time.Local); zoneOffset(local) == int(offset) {
		return local
	}
	return t.In(time.FixedZone("", int(offset)))
}

func zoneOffset(t time.Time) int {
	_, off := t.Zone()
	return off
}

// record decodes a length-prefixed record; length 0 is a nil record.
func (d *decoder) record() *QueryRecord {
	n := d.uvarint()
	if n == 0 || d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.p) {
		d.fail("record")
		return nil
	}
	end := d.p + int(n)
	outerWin, outerOff := d.win, d.winOff
	if d.p < d.winOff || end > d.winOff+len(d.win) {
		d.window(int(n))
	}
	q := &QueryRecord{}
	q.ID = QueryID(d.varint())
	q.Text = d.str()
	q.Canonical = d.str()
	q.Template = d.str()
	q.Fingerprint = d.fixed64()
	q.ExactHash = d.fixed64()
	q.User = d.str()
	q.Group = d.str()
	q.Visibility = Visibility(d.varint())
	q.IssuedAt = d.timestamp()
	q.Tables = d.strs()
	if n, ok := d.count(3); ok {
		q.Attributes = make([]AttributeRow, n)
		for i := range q.Attributes {
			a := &q.Attributes[i]
			a.Attr, a.Rel, a.Clause = d.str(), d.str(), d.str()
		}
	}
	if n, ok := d.count(7); ok {
		q.Predicates = make([]PredicateRow, n)
		for i := range q.Predicates {
			p := &q.Predicates[i]
			p.Attr, p.Rel, p.Op, p.Const = d.str(), d.str(), d.str(), d.str()
			p.IsJoin = d.flag()
			p.RightRel, p.RightAttr = d.str(), d.str()
		}
	}
	q.Aggregates = d.strs()
	q.GroupBy = d.strs()
	q.Features = d.strs()
	q.Stats = d.stats()
	flags := d.u8()
	if flags&^recFlagsAll != 0 {
		d.fail("record flags")
	}
	q.Valid = flags&recValid != 0
	q.StatsStale = flags&recStatsStale != 0
	if flags&recSample != 0 {
		q.Sample = d.sample()
	}
	if n, ok := d.count(6); ok {
		q.Annotations = make([]Annotation, n)
		for i := range q.Annotations {
			q.Annotations[i] = d.annotation()
		}
	}
	q.SessionID = d.varint()
	q.InvalidReason = d.str()
	q.QualityScore = d.float()
	if d.err == nil && d.p != end {
		d.fail("record length")
	}
	d.win, d.winOff = outerWin, outerOff
	return q
}

func (d *decoder) stats() RuntimeStats {
	return RuntimeStats{
		ExecTime:      time.Duration(d.varint()),
		ResultRows:    d.intv(),
		ResultColumns: d.intv(),
		Error:         d.str(),
		SchemaVersion: d.varint(),
		ExecutedAt:    d.timestamp(),
	}
}

func (d *decoder) sample() *OutputSample {
	s := &OutputSample{Columns: d.strs()}
	if n, ok := d.count(1); ok {
		s.Rows = make([][]string, n)
		for i := range s.Rows {
			s.Rows[i] = d.strs()
		}
	}
	s.TotalRows = d.intv()
	s.Truncated = d.flag()
	return s
}

func (d *decoder) annotation() Annotation {
	return Annotation{Author: d.str(), Text: d.str(), Fragment: d.str(), At: d.timestamp()}
}

func (d *decoder) edge() SessionEdge {
	return SessionEdge{
		From: QueryID(d.varint()),
		To:   QueryID(d.varint()),
		Type: EdgeType(d.varint()),
		Diff: d.str(),
	}
}
