package miner

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// itemsetCounts renders integer-coded itemsets in the oracle's string-keyed
// form.
func itemsetCounts(s *itemsets) map[string]int {
	out := make(map[string]int, len(s.sets))
	for i, set := range s.sets {
		items := make([]string, len(set))
		for j, id := range set {
			items[j] = s.names[id]
		}
		out[strings.Join(items, ",")] = s.counts[i]
	}
	return out
}

// randomTransactions draws n transactions of up to 7 items from a skewed
// distribution over the alphabet. Transactions may be empty and may repeat
// items.
func randomTransactions(r *rand.Rand, n int, alphabet []string) [][]string {
	tx := make([][]string, n)
	for i := range tx {
		for j := r.Intn(8); j > 0; j-- {
			k := int(r.ExpFloat64() * float64(len(alphabet)) / 3)
			if k >= len(alphabet) {
				k = r.Intn(len(alphabet))
			}
			tx[i] = append(tx[i], alphabet[k])
		}
	}
	return tx
}

// TestAprioriMatchesOracle checks the integer-coded Apriori against the
// string-keyed one on seeded random logs: the same frequent itemsets with the
// same counts, and the same rules in the same order.
func TestAprioriMatchesOracle(t *testing.T) {
	// The alphabet holds items that sort differently as strings than as
	// comma-joined keys (" " and "!" sort below ","), so rule order is
	// checked against Rule.Key.
	alphabet := []string{
		"table:WaterTemp", "table:WaterSalinity", "col:WaterTemp.temp", "pred:WaterTemp.temp < ?",
		"a", "a b", "a!", "ab", "b", "é", "agg:COUNT", "x", "y", "z", "table:Stars", "col:Stars.mag",
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		tx := randomTransactions(r, r.Intn(160), alphabet[:4+r.Intn(len(alphabet)-3)])
		for _, size := range []int{2, 3, 4} {
			for _, support := range []float64{0, 0.02, 0.1, 0.3} {
				cfg := AssocConfig{MinSupport: support, MinConfidence: 0.2, MaxItemsetSize: size}
				name := fmt.Sprintf("trial %d, %d transactions, %+v", trial, len(tx), cfg)
				if got, want := itemsetCounts(countItemsets(tx, cfg)), oracleCountItemsets(tx, cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: itemset counts differ\n got %v\nwant %v", name, got, want)
				}
				if got, want := MineAssociationRules(tx, cfg), oracleMineAssociationRules(tx, cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: rules differ\n got %v\nwant %v", name, got, want)
				}
			}
		}
	}
}

// randomRecord draws a record whose text, template, features and sample
// exercise the similarity measures' edge cases: empty and short strings,
// case and whitespace variants, shared fingerprints, repeated features, and
// missing, empty or repeating samples.
func randomRecord(r *rand.Rand) *storage.QueryRecord {
	words := []string{"SELECT", "select", "temp", "FROM", "WaterTemp", "<", "18", "a", "ab", " ", "\t", "é", "WHERE"}
	text := func() string {
		var b strings.Builder
		for i := r.Intn(6); i > 0; i-- {
			b.WriteString(words[r.Intn(len(words))])
			b.WriteString([]string{" ", "", "  ", "\n"}[r.Intn(4)])
		}
		return b.String()
	}
	rec := &storage.QueryRecord{Canonical: text(), Template: text(), Fingerprint: uint64(r.Intn(4))}
	features := []string{"table:WaterTemp", "col:WaterTemp.temp", "table:Stars", "pred:a < ?", "agg:COUNT"}
	for i := r.Intn(5); i > 0; i-- {
		rec.Features = append(rec.Features, features[r.Intn(len(features))])
	}
	switch r.Intn(4) {
	case 0: // no sample
	case 1:
		rec.Sample = &storage.OutputSample{}
	default:
		rec.Sample = &storage.OutputSample{}
		for i := r.Intn(5); i > 0; i-- {
			rec.Sample.Rows = append(rec.Sample.Rows, []string{fmt.Sprint(r.Intn(3)), []string{"x", "y", ""}[r.Intn(3)]})
		}
	}
	return rec
}

var allMeasures = []Measure{MeasureText, MeasureFeatures, MeasureTemplate, MeasureOutput, Measure(99)}

// checkMatrices compares PairwiseMatrix and Similarity with the per-pair
// oracle under every measure, Similarity in both argument orders.
func checkMatrices(t *testing.T, records []*storage.QueryRecord) {
	t.Helper()
	for _, m := range allMeasures {
		if got, want := PairwiseMatrix(m, records), oraclePairwiseMatrix(m, records); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: PairwiseMatrix differs from the per-pair oracle", m)
		}
		for _, a := range records {
			for _, b := range records {
				if got, want := Similarity(m, a, b), oracleSimilarity(m, a, b); got != want {
					t.Fatalf("%v: Similarity(%+v, %+v) = %v, oracle %v", m, a, b, got, want)
				}
			}
		}
	}
}

func TestSimilarityKernelsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		records := make([]*storage.QueryRecord, r.Intn(40))
		for i := range records {
			records[i] = randomRecord(r)
		}
		checkMatrices(t, records)
	}
	checkMatrices(t, generatedStore(t).Snapshot().Records(admin)[:100])
}

var (
	generatedOnce  sync.Once
	generatedLog   *storage.Store
	generatedError error
)

// generatedStore is the store after replaying the workload.Generate trace
// of 100 users with 20 sessions each through the profiler.
func generatedStore(t *testing.T) *storage.Store {
	t.Helper()
	generatedOnce.Do(func() {
		eng := engine.New()
		if generatedError = workload.Populate(eng, 20, 1); generatedError != nil {
			return
		}
		cfg := workload.DefaultConfig()
		cfg.Seed, cfg.Users, cfg.SessionsPerUser = 1, 100, 20
		generatedLog = storage.NewStore()
		_, generatedError = workload.Replay(workload.Generate(cfg), profiler.New(eng, generatedLog, profiler.DefaultConfig()))
	})
	if generatedError != nil {
		t.Fatal(generatedError)
	}
	return generatedLog
}

// TestRunMatchesOracleOnGeneratedTrace checks that a whole mining pass over
// a generated log is identical to one assembled from the oracles.
func TestRunMatchesOracleOnGeneratedTrace(t *testing.T) {
	store := generatedStore(t)
	cfg := DefaultConfig()
	got := New(cfg).Run(store)

	records := store.Snapshot().Records(admin)
	var transactions [][]string
	for _, r := range records {
		if len(r.Features) > 0 {
			transactions = append(transactions, r.Features)
		}
	}
	clustered := records[len(records)-cfg.MaxClusteredQueries:]
	want := &Result{
		Rules:            oracleMineAssociationRules(transactions, cfg.Assoc),
		Clusters:         kMedoids(clustered, oraclePairwiseMatrix(cfg.Cluster.Measure, clustered), cfg.Cluster),
		EditPatterns:     MineEditPatterns(store.Edges(), cfg.MinEditPatternCount),
		TransactionCount: len(records),
	}
	for _, r := range clustered {
		want.ClusteredIDs = append(want.ClusteredIDs, r.ID)
	}
	want.TablePopularity, want.ColumnPopularity, want.PredicatePopularity = popularityCounts(records)
	if len(want.Rules) == 0 || len(want.Clusters) == 0 {
		t.Fatalf("degenerate oracle result: %d rules, %d clusters", len(want.Rules), len(want.Clusters))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mining Result differs from the oracle")
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("mining Result encodes differently from the oracle")
	}
}
