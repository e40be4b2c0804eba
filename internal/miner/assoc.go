package miner

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
)

// Rule is one mined association rule over query features (§4.3): "queries
// containing the antecedent features also contain the consequent feature".
// The recommender turns these into context-aware completion suggestions, e.g.
// {table:WaterSalinity} => table:WaterTemp.
type Rule struct {
	Antecedent []string
	Consequent string
	Support    float64 // fraction of transactions containing antecedent ∪ consequent
	Confidence float64 // support(antecedent ∪ consequent) / support(antecedent)
	Lift       float64 // confidence / support(consequent)
}

// Key returns a canonical identity for the rule, used for deduplication in
// tests and incremental re-mining.
func (r Rule) Key() string {
	ant := append([]string(nil), r.Antecedent...)
	sort.Strings(ant)
	return strings.Join(ant, ",") + " => " + r.Consequent
}

// AssocConfig controls Apriori mining.
type AssocConfig struct {
	// MinSupport is the minimum fraction of transactions an itemset must
	// appear in.
	MinSupport float64
	// MinConfidence is the minimum confidence for emitted rules.
	MinConfidence float64
	// MaxItemsetSize bounds the size of mined itemsets (antecedent size is at
	// most MaxItemsetSize-1).
	MaxItemsetSize int
}

// DefaultAssocConfig returns thresholds suitable for exploratory query logs.
func DefaultAssocConfig() AssocConfig {
	return AssocConfig{MinSupport: 0.01, MinConfidence: 0.3, MaxItemsetSize: 3}
}

// MineAssociationRules runs Apriori over the transactions (each transaction
// is one query's feature set) and derives rules with a single-item
// consequent.
func MineAssociationRules(transactions [][]string, cfg AssocConfig) []Rule {
	return countItemsets(transactions, cfg).rules(len(transactions), cfg)
}

// itemsets holds frequent itemsets over integer-coded items. Items are
// interned in sorted name order, so ID order equals string order and a
// sorted ID tuple lists its items in sorted order.
type itemsets struct {
	names  []string       // item ID -> item
	sets   [][]int32      // frequent itemsets as sorted ID tuples
	counts []int          // counts[i] is the support count of sets[i]
	index  map[string]int // tupleKeys(sets)[i] -> i
}

func newItemsets(names []string) *itemsets {
	return &itemsets{names: names, index: make(map[string]int)}
}

// add records itemsets with their support counts.
func (s *itemsets) add(sets [][]int32, counts []int) {
	for i, key := range tupleKeys(sets) {
		s.index[key] = len(s.sets)
		s.sets = append(s.sets, sets[i])
		s.counts = append(s.counts, counts[i])
	}
}

// count returns the support count of the itemset whose index key is key.
func (s *itemsets) count(key []byte) (int, bool) {
	i, ok := s.index[string(key)]
	if !ok {
		return 0, false
	}
	return s.counts[i], true
}

// appendTuple appends the fixed-width encoding of an ID tuple: the key of
// the itemset and candidate indexes.
func appendTuple(key []byte, set []int32) []byte {
	for _, id := range set {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	return key
}

// tupleKeys returns the index key of every tuple, all cut from one string.
func tupleKeys(sets [][]int32) []string {
	var buf []byte
	for _, set := range sets {
		buf = appendTuple(buf, set)
	}
	all := string(buf)
	keys := make([]string, len(sets))
	for i, set := range sets {
		n := 4 * len(set)
		keys[i], all = all[:n], all[n:]
	}
	return keys
}

// countItemsets performs the level-wise Apriori candidate generation and
// counting, returning every frequent itemset up to MaxItemsetSize with its
// support count.
func countItemsets(transactions [][]string, cfg AssocConfig) *itemsets {
	n := len(transactions)
	if n == 0 {
		return newItemsets(nil)
	}
	minCount := int(cfg.MinSupport * float64(n))
	if minCount < 1 {
		minCount = 1
	}
	maxSize := cfg.MaxItemsetSize
	if maxSize < 2 {
		maxSize = 2
	}

	// Level 1: count each distinct item once per transaction, keeping each
	// transaction's distinct items as first-seen IDs.
	seenIDs := make(map[string]int32)
	var seen []string
	var support, lastTx, ends []int
	var flat []int32
	for i, t := range transactions {
		for _, item := range t {
			id, ok := seenIDs[item]
			if !ok {
				id = int32(len(seen))
				seenIDs[item] = id
				seen = append(seen, item)
				support = append(support, 0)
				lastTx = append(lastTx, -1)
			}
			if lastTx[id] != i {
				lastTx[id] = i
				support[id]++
				flat = append(flat, id)
			}
		}
		ends = append(ends, len(flat))
	}
	var names []string
	for id, item := range seen {
		if support[id] >= minCount {
			names = append(names, item)
		}
	}
	sort.Strings(names)
	s := newItemsets(names)
	ids := make([]int32, len(seen)) // first-seen ID -> item ID, or -1
	for i := range ids {
		ids[i] = -1
	}
	level := make([][]int32, len(names))
	counts := make([]int, len(names))
	singles := make([]int32, len(names))
	for id, item := range names {
		ids[seenIDs[item]] = int32(id)
		singles[id] = int32(id)
		level[id] = singles[id : id+1 : id+1]
		counts[id] = support[seenIDs[item]]
	}
	s.add(level, counts)

	// Each transaction becomes the sorted tuple of its frequent items,
	// rewritten in place in flat.
	coded := make([][]int32, 0, n)
	start := 0
	for _, end := range ends {
		t := flat[start:start]
		for _, first := range flat[start:end] {
			if id := ids[first]; id >= 0 {
				t = append(t, id)
			}
		}
		slices.Sort(t)
		if len(t) >= 2 {
			coded = append(coded, t[:len(t):len(t)])
		}
		start = end
	}

	// Levels 2..maxSize.
	for size := 2; size <= maxSize && len(level) > 1; size++ {
		candidates := joinPrefixes(level)
		if len(candidates) == 0 {
			break
		}
		hits := s.countCandidates(coded, candidates)
		level, counts = level[:0:0], counts[:0:0]
		for i, c := range hits {
			if c >= minCount {
				level = append(level, candidates[i])
				counts = append(counts, c)
			}
		}
		s.add(level, counts)
	}
	return s
}

// joinPrefixes generates the k-item candidates of classic Apriori-gen,
// without the prune step: every pair of frequent (k-1)-itemsets that agree
// on all but their last item joins into one candidate. level must be in
// lexicographic tuple order, so the itemsets sharing a prefix are adjacent;
// the candidates come out in the same order.
func joinPrefixes(level [][]int32) [][]int32 {
	var flat []int32
	for i, a := range level {
		prefix := a[:len(a)-1]
		for _, b := range level[i+1:] {
			if !slices.Equal(prefix, b[:len(b)-1]) {
				break
			}
			flat = append(append(flat, a...), b[len(b)-1])
		}
	}
	k := len(level[0]) + 1
	out := make([][]int32, len(flat)/k)
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

// countCandidates counts the transactions containing each candidate. It
// enumerates every transaction's k-subsets and looks each one up in an index
// of the candidates, so the work follows the transactions, not the number of
// candidates. A subset whose prefix is not a frequent itemset cannot extend
// to a candidate, so the enumeration skips it.
func (s *itemsets) countCandidates(transactions [][]int32, candidates [][]int32) []int {
	w := subsetWalk{
		frequent: s.index,
		index:    make(map[string]int32, len(candidates)),
		hits:     make([]int, len(candidates)),
		k:        len(candidates[0]),
	}
	for i, key := range tupleKeys(candidates) {
		w.index[key] = int32(i)
	}
	w.key = make([]byte, 0, 4*w.k)
	for _, t := range transactions {
		w.walk(t, 0)
	}
	return w.hits
}

// subsetWalk is the state of countCandidates' subset enumeration.
type subsetWalk struct {
	frequent map[string]int   // frequent itemsets of the earlier levels
	index    map[string]int32 // candidate key -> candidate
	hits     []int
	k        int
	key      []byte // key of the subset being built
}

// walk extends the depth-item subset in w.key with each item of t in turn.
func (w *subsetWalk) walk(t []int32, depth int) {
	for i := 0; i+w.k-depth <= len(t); i++ {
		w.key = appendTuple(w.key[:4*depth], t[i:i+1])
		if depth+1 == w.k {
			if c, ok := w.index[string(w.key)]; ok {
				w.hits[c]++
			}
			continue
		}
		if depth > 0 {
			if _, ok := w.frequent[string(w.key)]; !ok {
				continue
			}
		}
		w.walk(t[i+1:], depth+1)
	}
}

// rules derives the single-consequent rules of the itemsets. Item names are
// looked up only for the rules that pass MinConfidence.
func (s *itemsets) rules(numTransactions int, cfg AssocConfig) []Rule {
	if numTransactions == 0 {
		return nil
	}
	type keyedRule struct {
		Rule
		key string
	}
	var out []keyedRule
	var key []byte
	for i, set := range s.sets {
		if len(set) < 2 {
			continue
		}
		count := s.counts[i]
		support := float64(count) / float64(numTransactions)
		for j, consequent := range set {
			key = appendTuple(appendTuple(key[:0], set[:j]), set[j+1:])
			antCount, ok := s.count(key)
			if !ok || antCount == 0 {
				continue
			}
			conf := float64(count) / float64(antCount)
			if conf < cfg.MinConfidence {
				continue
			}
			consCount, _ := s.count(appendTuple(key[:0], set[j:j+1]))
			lift := 0.0
			if consCount > 0 {
				lift = conf / (float64(consCount) / float64(numTransactions))
			}
			antecedent := make([]string, 0, len(set)-1)
			for _, id := range set {
				if id != consequent {
					antecedent = append(antecedent, s.names[id])
				}
			}
			r := Rule{
				Antecedent: antecedent,
				Consequent: s.names[consequent],
				Support:    support,
				Confidence: conf,
				Lift:       lift,
			}
			out = append(out, keyedRule{r, r.Key()})
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].key < out[j].key
	})
	rules := make([]Rule, len(out))
	for i, r := range out {
		rules[i] = r.Rule
	}
	return rules
}

// ---------------------------------------------------------------------------
// Incremental mining (§4.3: "incremental mining algorithms ... will likely be
// necessary considering the possibly rapid growth of the query log").
// ---------------------------------------------------------------------------

// IncrementalMiner maintains itemset counts as transactions arrive and can
// produce rules at any time without rescanning past transactions. To bound
// state it counts only itemsets up to MaxItemsetSize built from items that
// were frequent among the first warm-up batch (a standard candidate-freezing
// approximation; RulesExact is available for comparison in the E6 ablation).
type IncrementalMiner struct {
	cfg        AssocConfig
	counts     map[string]int
	numTx      int
	vocabulary map[string]bool // items eligible for multi-item counting
	warmupTx   [][]string
	warmupSize int
	frozen     bool
}

// NewIncrementalMiner returns an incremental miner that freezes its candidate
// vocabulary after warmupSize transactions.
func NewIncrementalMiner(cfg AssocConfig, warmupSize int) *IncrementalMiner {
	if warmupSize <= 0 {
		warmupSize = 100
	}
	return &IncrementalMiner{
		cfg:        cfg,
		counts:     make(map[string]int),
		vocabulary: make(map[string]bool),
		warmupSize: warmupSize,
	}
}

// Add ingests one transaction.
func (im *IncrementalMiner) Add(transaction []string) {
	im.numTx++
	if !im.frozen {
		im.warmupTx = append(im.warmupTx, transaction)
		if len(im.warmupTx) >= im.warmupSize {
			im.freeze()
		}
		return
	}
	im.count(transaction)
}

// NumTransactions returns how many transactions have been ingested.
func (im *IncrementalMiner) NumTransactions() int { return im.numTx }

// freeze mines the warm-up batch with full Apriori, fixes the vocabulary to
// the items appearing in frequent itemsets, and replays the warm-up
// transactions through the counting path.
func (im *IncrementalMiner) freeze() {
	im.frozen = true
	for _, item := range countItemsets(im.warmupTx, im.cfg).names {
		im.vocabulary[item] = true
	}
	for _, t := range im.warmupTx {
		im.count(t)
	}
	im.warmupTx = nil
}

// count updates itemset counts for one transaction using only vocabulary
// items. Keys join escaped items (see escapeItem) in sorted item order.
func (im *IncrementalMiner) count(transaction []string) {
	seen := make(map[string]bool)
	var items []string
	for _, item := range transaction {
		if seen[item] {
			continue
		}
		seen[item] = true
		// Singletons are always counted so new items can become visible in
		// Rules' support denominators after a re-freeze.
		im.counts[escapeItem(item)]++
		if im.vocabulary[item] {
			items = append(items, item)
		}
	}
	sort.Strings(items)
	for i, item := range items {
		items[i] = escapeItem(item)
	}
	maxSize := im.cfg.MaxItemsetSize
	if maxSize < 2 {
		maxSize = 2
	}
	im.countSubsets(items, "", 0, maxSize)
}

// countSubsets counts every itemset of 2..maxSize items that extends the
// size-item prefix with items in order.
func (im *IncrementalMiner) countSubsets(items []string, prefix string, size, maxSize int) {
	for i, item := range items {
		key := item
		if size > 0 {
			key = prefix + "," + item
			im.counts[key]++
		}
		if size+1 < maxSize {
			im.countSubsets(items[i+1:], key, size+1, maxSize)
		}
	}
}

// itemEscaper backslash-escapes the separator of itemset keys.
var itemEscaper = strings.NewReplacer(`\`, `\\`, ",", `\,`)

// escapeItem makes an item safe to join into a ','-separated itemset key.
func escapeItem(item string) string {
	if !strings.ContainsAny(item, `\,`) {
		return item
	}
	return itemEscaper.Replace(item)
}

// splitItemset splits an itemset key into its unescaped items.
func splitItemset(key string) []string {
	var items []string
	var item []byte
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c == '\\' && i+1 < len(key):
			i++
			item = append(item, key[i])
		case c == ',':
			items = append(items, string(item))
			item = item[:0]
		default:
			item = append(item, c)
		}
	}
	return append(items, string(item))
}

// itemsetsFromCounts interns the items of string-keyed itemset counts.
func itemsetsFromCounts(counts map[string]int) *itemsets {
	split := make([][]string, 0, len(counts))
	values := make([]int, 0, len(counts))
	ids := make(map[string]int32)
	for key, c := range counts {
		items := splitItemset(key)
		for _, item := range items {
			ids[item] = 0
		}
		split = append(split, items)
		values = append(values, c)
	}
	names := make([]string, 0, len(ids))
	for item := range ids {
		names = append(names, item)
	}
	sort.Strings(names)
	for id, item := range names {
		ids[item] = int32(id)
	}
	sets := make([][]int32, len(split))
	for i, items := range split {
		set := make([]int32, len(items))
		for j, item := range items {
			set[j] = ids[item]
		}
		slices.Sort(set)
		sets[i] = set
	}
	s := newItemsets(names)
	s.add(sets, values)
	return s
}

// Rules derives association rules from the maintained counts. Before the
// warm-up completes it falls back to exact mining over the buffered
// transactions.
func (im *IncrementalMiner) Rules() []Rule {
	return im.snapshotRules()()
}

// snapshotRules copies the state rule derivation needs and returns a closure
// that performs the (comparatively expensive) derivation without touching the
// miner, so a caller that guards the miner with a lock can snapshot under it
// and derive outside it.
func (im *IncrementalMiner) snapshotRules() func() []Rule {
	cfg := im.cfg
	if !im.frozen {
		tx := make([][]string, len(im.warmupTx))
		copy(tx, im.warmupTx)
		return func() []Rule { return MineAssociationRules(tx, cfg) }
	}
	minCount := int(cfg.MinSupport * float64(im.numTx))
	if minCount < 1 {
		minCount = 1
	}
	filtered := make(map[string]int, len(im.counts))
	for key, c := range im.counts {
		if c >= minCount {
			filtered[key] = c
		}
	}
	numTx := im.numTx
	return func() []Rule { return itemsetsFromCounts(filtered).rules(numTx, cfg) }
}
