package miner

import (
	"sort"
	"strings"

	"repro/internal/storage"
)

// This file keeps the string-keyed Apriori and the per-pair similarity loop
// that the integer-coded kernels replaced. They are the oracles of the
// equivalence tests: the kernels must reproduce their output exactly.

// oracleItemsetKey is a sorted, comma-joined set of items used as a map key.
func oracleItemsetKey(items []string) string {
	s := append([]string(nil), items...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// oracleMineAssociationRules is MineAssociationRules over the oracles.
func oracleMineAssociationRules(transactions [][]string, cfg AssocConfig) []Rule {
	counts := oracleCountItemsets(transactions, cfg)
	return oracleRulesFromCounts(counts, len(transactions), cfg)
}

// oracleCountItemsets performs the level-wise Apriori candidate generation
// and counting, returning the support counts of all frequent itemsets up to
// MaxItemsetSize, checking every candidate against every transaction.
func oracleCountItemsets(transactions [][]string, cfg AssocConfig) map[string]int {
	n := len(transactions)
	if n == 0 {
		return map[string]int{}
	}
	minCount := int(cfg.MinSupport * float64(n))
	if minCount < 1 {
		minCount = 1
	}
	maxSize := cfg.MaxItemsetSize
	if maxSize < 2 {
		maxSize = 2
	}

	// Normalise transactions to sorted unique feature slices.
	normalized := make([][]string, n)
	for i, t := range transactions {
		seen := make(map[string]bool, len(t))
		var items []string
		for _, item := range t {
			if !seen[item] {
				seen[item] = true
				items = append(items, item)
			}
		}
		sort.Strings(items)
		normalized[i] = items
	}

	counts := make(map[string]int)

	// Level 1.
	level1 := make(map[string]int)
	for _, t := range normalized {
		for _, item := range t {
			level1[item]++
		}
	}
	var frequent [][]string
	for item, c := range level1 {
		if c >= minCount {
			counts[item] = c
			frequent = append(frequent, []string{item})
		}
	}
	sort.Slice(frequent, func(i, j int) bool { return frequent[i][0] < frequent[j][0] })

	// Levels 2..maxSize.
	prev := frequent
	for size := 2; size <= maxSize && len(prev) > 1; size++ {
		candidates := oracleGenerateCandidates(prev)
		if len(candidates) == 0 {
			break
		}
		candCounts := make(map[string]int, len(candidates))
		candItems := make(map[string][]string, len(candidates))
		for _, c := range candidates {
			candItems[oracleItemsetKey(c)] = c
		}
		for _, t := range normalized {
			tset := make(map[string]bool, len(t))
			for _, item := range t {
				tset[item] = true
			}
			for key, items := range candItems {
				contained := true
				for _, item := range items {
					if !tset[item] {
						contained = false
						break
					}
				}
				if contained {
					candCounts[key]++
				}
			}
		}
		var next [][]string
		for key, c := range candCounts {
			if c >= minCount {
				counts[key] = c
				next = append(next, candItems[key])
			}
		}
		sort.Slice(next, func(i, j int) bool { return oracleItemsetKey(next[i]) < oracleItemsetKey(next[j]) })
		prev = next
	}
	return counts
}

// oracleGenerateCandidates joins frequent (k-1)-itemsets sharing a common
// prefix to produce k-item candidates (classic Apriori-gen, without the
// prune step).
func oracleGenerateCandidates(prev [][]string) [][]string {
	var out [][]string
	seen := make(map[string]bool)
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			a, b := prev[i], prev[j]
			if len(a) != len(b) {
				continue
			}
			// Join when all but the last item agree.
			match := true
			for k := 0; k < len(a)-1; k++ {
				if a[k] != b[k] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			cand := append(append([]string{}, a...), b[len(b)-1])
			sort.Strings(cand)
			key := oracleItemsetKey(cand)
			if !seen[key] {
				seen[key] = true
				out = append(out, cand)
			}
		}
	}
	return out
}

// oracleRulesFromCounts derives single-consequent rules from itemset
// support counts.
func oracleRulesFromCounts(counts map[string]int, numTransactions int, cfg AssocConfig) []Rule {
	if numTransactions == 0 {
		return nil
	}
	var rules []Rule
	for key, count := range counts {
		items := strings.Split(key, ",")
		if len(items) < 2 {
			continue
		}
		support := float64(count) / float64(numTransactions)
		for i, consequent := range items {
			antecedent := make([]string, 0, len(items)-1)
			antecedent = append(antecedent, items[:i]...)
			antecedent = append(antecedent, items[i+1:]...)
			antCount, ok := counts[oracleItemsetKey(antecedent)]
			if !ok || antCount == 0 {
				continue
			}
			conf := float64(count) / float64(antCount)
			if conf < cfg.MinConfidence {
				continue
			}
			consCount := counts[consequent]
			lift := 0.0
			if consCount > 0 {
				lift = conf / (float64(consCount) / float64(numTransactions))
			}
			rules = append(rules, Rule{
				Antecedent: antecedent,
				Consequent: consequent,
				Support:    support,
				Confidence: conf,
				Lift:       lift,
			})
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		if rules[i].Support != rules[j].Support {
			return rules[i].Support > rules[j].Support
		}
		return rules[i].Key() < rules[j].Key()
	})
	return rules
}

// oracleSimilarity computes one measure between two records directly from
// their strings.
func oracleSimilarity(m Measure, a, b *storage.QueryRecord) float64 {
	switch m {
	case MeasureText:
		return oracleTrigramSimilarity(strings.ToLower(a.Canonical), strings.ToLower(b.Canonical))
	case MeasureFeatures:
		return oracleJaccardStrings(a.Features, b.Features)
	case MeasureTemplate:
		if a.Fingerprint == b.Fingerprint {
			return 1
		}
		return oracleTrigramSimilarity(strings.ToLower(a.Template), strings.ToLower(b.Template))
	case MeasureOutput:
		return oracleOutputSimilarity(a.Sample, b.Sample)
	default:
		return 0
	}
}

// oracleJaccardStrings is Jaccard similarity of two string sets.
func oracleJaccardStrings(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	inter := 0
	union := len(set)
	for _, y := range b {
		if set[y] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// oracleTrigramSimilarity is Jaccard similarity over character trigrams.
func oracleTrigramSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	ta := oracleTrigrams(a)
	tb := oracleTrigrams(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for g := range ta {
		if tb[g] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

func oracleTrigrams(s string) map[string]bool {
	s = strings.Join(strings.Fields(s), " ")
	out := make(map[string]bool)
	if len(s) < 3 {
		if s != "" {
			out[s] = true
		}
		return out
	}
	for i := 0; i+3 <= len(s); i++ {
		out[s[i:i+3]] = true
	}
	return out
}

// oracleOutputSimilarity compares two output samples as sets of stringified
// rows.
func oracleOutputSimilarity(a, b *storage.OutputSample) float64 {
	if a == nil || b == nil {
		return 0
	}
	if len(a.Rows) == 0 && len(b.Rows) == 0 {
		return 1
	}
	rowsA := make([]string, len(a.Rows))
	for i, r := range a.Rows {
		rowsA[i] = strings.Join(r, "\x1f")
	}
	rowsB := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		rowsB[i] = strings.Join(r, "\x1f")
	}
	return oracleJaccardStrings(rowsA, rowsB)
}

// oraclePairwiseMatrix fills the similarity matrix one oracleSimilarity call
// per pair.
func oraclePairwiseMatrix(m Measure, records []*storage.QueryRecord) [][]float64 {
	n := len(records)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := oracleSimilarity(m, records[i], records[j])
			out[i][j] = s
			out[j][i] = s
		}
	}
	return out
}
