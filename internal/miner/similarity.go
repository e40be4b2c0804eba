// Package miner implements the CQMS Query Miner (Figure 4): the background
// component that analyses the Query Storage. It provides the query
// similarity measures discussed in §4.3 (string, feature-set, parse-tree
// template and output-overlap similarity), query clustering (k-medoids and
// agglomerative), association-rule mining over query features (Apriori, with
// an incremental variant), and edit-pattern mining over session edges.
package miner

import (
	"slices"
	"strings"

	"repro/internal/storage"
)

// Measure identifies one of the similarity measures of §4.3.
type Measure int

// Similarity measures.
const (
	// MeasureText is trigram similarity over the raw query text.
	MeasureText Measure = iota
	// MeasureFeatures is Jaccard similarity over the feature sets.
	MeasureFeatures
	// MeasureTemplate is similarity of the constant-masked templates (1.0 for
	// identical templates, otherwise trigram similarity of the templates —
	// "parse tree similarity after removing the constants" per §4.3).
	MeasureTemplate
	// MeasureOutput is Jaccard similarity over sampled output rows, comparing
	// queries as black boxes (§4.1).
	MeasureOutput
)

// String returns the measure's name.
func (m Measure) String() string {
	switch m {
	case MeasureText:
		return "text"
	case MeasureFeatures:
		return "features"
	case MeasureTemplate:
		return "template"
	case MeasureOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Similarity computes the chosen measure between two stored queries. All
// measures return values in [0, 1], 1 meaning identical.
func Similarity(m Measure, a, b *storage.QueryRecord) float64 {
	p := prepare(m, []*storage.QueryRecord{a, b})
	return m.cell(&p[0], &p[1])
}

// CompositeWeights holds the weights of a weighted combination of measures,
// the ranking-function composition question raised in §2.3.
type CompositeWeights struct {
	Text     float64
	Features float64
	Template float64
	Output   float64
}

// DefaultWeights emphasises structural similarity with a small contribution
// from output overlap.
func DefaultWeights() CompositeWeights {
	return CompositeWeights{Text: 0.1, Features: 0.5, Template: 0.3, Output: 0.1}
}

// CompositeSimilarity combines the individual measures with the given
// weights, normalising by the total weight.
func CompositeSimilarity(w CompositeWeights, a, b *storage.QueryRecord) float64 {
	total := w.Text + w.Features + w.Template + w.Output
	if total == 0 {
		return 0
	}
	sum := w.Text*Similarity(MeasureText, a, b) +
		w.Features*Similarity(MeasureFeatures, a, b) +
		w.Template*Similarity(MeasureTemplate, a, b) +
		w.Output*Similarity(MeasureOutput, a, b)
	return sum / total
}

// profile is one record prepared for a measure's cell kernel.
type profile struct {
	// set holds the record's codes (feature, trigram or output-row IDs),
	// sorted and distinct; multi holds them sorted with repeats kept.
	set, multi  []uint32
	fingerprint uint64 // MeasureTemplate only
	noSample    bool   // MeasureOutput only: the record has no sample
}

// prepare builds every record's profile for m once, so that filling a
// matrix cell allocates nothing. Features and output rows are interned to
// IDs shared by all the records; text and templates are lower-cased and cut
// into trigram codes.
func prepare(m Measure, records []*storage.QueryRecord) []profile {
	out := make([]profile, len(records))
	var ids map[string]uint32
	intern := func(codes []uint32, item string) []uint32 {
		id, ok := ids[item]
		if !ok {
			if ids == nil {
				ids = make(map[string]uint32)
			}
			id = uint32(len(ids))
			ids[item] = id
		}
		return append(codes, id)
	}
	var codes []uint32
	for i, r := range records {
		codes = codes[:0]
		switch m {
		case MeasureText:
			codes = appendTrigrams(codes, strings.ToLower(r.Canonical))
		case MeasureFeatures:
			for _, f := range r.Features {
				codes = intern(codes, f)
			}
		case MeasureTemplate:
			out[i].fingerprint = r.Fingerprint
			codes = appendTrigrams(codes, strings.ToLower(r.Template))
		case MeasureOutput:
			if r.Sample == nil {
				out[i].noSample = true
				continue
			}
			for _, row := range r.Sample.Rows {
				codes = intern(codes, strings.Join(row, "\x1f"))
			}
		}
		multi := slices.Clone(codes)
		slices.Sort(multi)
		set := multi
		for j := 1; j < len(multi); j++ {
			if multi[j] == multi[j-1] {
				set = slices.Compact(slices.Clone(multi))
				break
			}
		}
		if m == MeasureText || m == MeasureTemplate {
			multi = set // trigrams form a set; features and rows may repeat
		}
		out[i].set, out[i].multi = set, multi
	}
	return out
}

// cell is m's similarity of two prepared records.
func (m Measure) cell(a, b *profile) float64 {
	switch m {
	case MeasureText, MeasureFeatures:
	case MeasureTemplate:
		// "Parse tree similarity after removing the constants": identical
		// templates score 1, others by trigram overlap.
		if a.fingerprint == b.fingerprint {
			return 1
		}
	case MeasureOutput:
		// Queries without samples have zero output similarity to anything.
		if a.noSample || b.noSample {
			return 0
		}
	default:
		return 0
	}
	return jaccard(a.set, b.multi)
}

// jaccard is the Jaccard similarity every measure shares, by a sorted merge:
// inter counts the members of multiset b found in set a, repeats included,
// and the union is |a| + |b| - inter. Two empty inputs are identical; one
// empty input shares nothing.
func jaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i := 0, 0
	for _, y := range b {
		for i < len(a) && a[i] < y {
			i++
		}
		if i < len(a) && a[i] == y {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// appendTrigrams appends the codes of the character trigrams of s with its
// whitespace collapsed, a cheap and robust string similarity basis for SQL
// text; a string shorter than three bytes is its own trigram. A code packs
// the bytes below their count, so two codes are equal exactly when their
// trigrams are.
func appendTrigrams(codes []uint32, s string) []uint32 {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) < 3 {
		if s != "" {
			c := uint32(len(s)) << 24
			for i := 0; i < len(s); i++ {
				c |= uint32(s[i]) << (8 * (len(s) - 1 - i))
			}
			codes = append(codes, c)
		}
		return codes
	}
	for i := 0; i+3 <= len(s); i++ {
		codes = append(codes, 3<<24|uint32(s[i])<<16|uint32(s[i+1])<<8|uint32(s[i+2]))
	}
	return codes
}

// PairwiseMatrix computes the full symmetric similarity matrix for the given
// records under one measure. It is used by the clustering algorithms and by
// the E7 similarity-measure ablation.
func PairwiseMatrix(m Measure, records []*storage.QueryRecord) [][]float64 {
	n := len(records)
	p := prepare(m, records)
	cells := make([]float64, n*n)
	out := make([][]float64, n)
	for i := range out {
		out[i] = cells[i*n : (i+1)*n : (i+1)*n]
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := m.cell(&p[i], &p[j])
			out[i][j] = s
			out[j][i] = s
		}
	}
	return out
}
