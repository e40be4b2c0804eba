package storage

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// FeatureParseError is the feature-set class assigned to raw-captured
// records whose text failed to parse. It keeps unparsable statements
// findable (keyword search still works on raw text) and groups them under
// one fingerprint class in the stats and mining surfaces.
const FeatureParseError = "parse_error"

// NewRecordFromSQL parses the query text, extracts its syntactic features and
// returns a QueryRecord ready for Store.Put. Runtime statistics, samples,
// user identity and visibility are filled in by the caller (normally the
// Query Profiler).
func NewRecordFromSQL(text string) (*QueryRecord, error) {
	rec, _, err := ParseRecord(text)
	return rec, err
}

// ParseRecord is NewRecordFromSQL that also returns the parsed statement, so
// a caller that goes on to execute the query parses its text only once.
func ParseRecord(text string) (*QueryRecord, sql.Statement, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: parsing query: %w", err)
	}
	canonical := stmt.SQL()
	template := sql.Template(stmt)
	rec := &QueryRecord{
		Text:        text,
		Canonical:   canonical,
		Template:    template,
		Fingerprint: sql.TemplateFingerprint(template),
		ExactHash:   sql.CanonicalFingerprint(canonical),
		Valid:       true,
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return rec, stmt, nil
	}
	a := sql.Analyze(sel)
	rec.Tables = append([]string(nil), a.Tables...)
	for _, c := range a.Columns {
		rec.Attributes = append(rec.Attributes, AttributeRow{Attr: c.Column, Rel: c.Table, Clause: c.Clause})
	}
	for _, p := range a.Predicates {
		rec.Predicates = append(rec.Predicates, PredicateRow{
			Attr: p.Column, Rel: p.Table, Op: p.Op, Const: p.Value,
			IsJoin: p.IsJoin, RightRel: p.RightTab, RightAttr: p.RightCol,
		})
	}
	rec.Aggregates = append([]string(nil), a.Aggregates...)
	rec.GroupBy = append([]string(nil), a.GroupByColumns...)
	rec.Features = a.FeatureSet()
	return rec, stmt, nil
}

// NewRawRecord builds a QueryRecord for text that failed to parse: the raw
// text is preserved, the canonical form falls back to whitespace-collapsed
// upper-casing, the template and fingerprint use the lexer-level constant
// mask (sql.TemplateText's parse-free fallback), and the record is marked
// invalid with the parse error as its reason. Its feature set carries the
// FeatureParseError class so the statement is still captured — the paper's
// premise is that the log is collected as a side effect of use, and a
// statement our SQL subset cannot parse is still real workload worth
// logging — without polluting the structured feature relations.
func NewRawRecord(text string, parseErr error) *QueryRecord {
	rec := &QueryRecord{
		Text:        text,
		Canonical:   strings.ToUpper(strings.Join(strings.Fields(text), " ")),
		Template:    sql.TemplateText(text),
		Fingerprint: sql.Fingerprint(text),
		ExactHash:   sql.ExactFingerprint(text),
		Valid:       false,
		Features:    []string{FeatureParseError},
	}
	if parseErr != nil {
		rec.InvalidReason = "parse error: " + parseErr.Error()
	} else {
		rec.InvalidReason = "parse error"
	}
	return rec
}

// Analysis reconstructs a sql.Analysis from the stored feature rows, so that
// components which operate on analyses (diffing, similarity) do not need to
// re-parse the query text.
func (q *QueryRecord) Analysis() *sql.Analysis {
	a := &sql.Analysis{Aliases: map[string]string{}}
	a.Tables = append([]string(nil), q.Tables...)
	for _, attr := range q.Attributes {
		a.Columns = append(a.Columns, sql.ColumnUse{Table: attr.Rel, Column: attr.Attr, Clause: attr.Clause})
	}
	for _, p := range q.Predicates {
		a.Predicates = append(a.Predicates, sql.PredicateFeature{
			Table: p.Rel, Column: p.Attr, Op: p.Op, Value: p.Const,
			IsJoin: p.IsJoin, RightTab: p.RightRel, RightCol: p.RightAttr,
		})
	}
	a.Aggregates = append([]string(nil), q.Aggregates...)
	a.GroupByColumns = append([]string(nil), q.GroupBy...)
	return a
}
