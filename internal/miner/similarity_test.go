package miner

import (
	"testing"

	"repro/internal/storage"
)

func rec(t testing.TB, text string) *storage.QueryRecord {
	t.Helper()
	r, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL(%q): %v", text, err)
	}
	return r
}

func TestSimilaritySelfIsOne(t *testing.T) {
	q := rec(t, "SELECT temp FROM WaterTemp WHERE temp < 18")
	for _, m := range []Measure{MeasureText, MeasureFeatures, MeasureTemplate} {
		if s := Similarity(m, q, q); s != 1.0 {
			t.Errorf("%v self-similarity = %v, want 1", m, s)
		}
	}
}

func TestSimilarityRange(t *testing.T) {
	queries := []string{
		"SELECT temp FROM WaterTemp WHERE temp < 18",
		"SELECT temp FROM WaterTemp WHERE temp < 22",
		"SELECT salinity FROM WaterSalinity",
		"SELECT city, state FROM CityLocations WHERE pop > 10000",
	}
	var records []*storage.QueryRecord
	for _, q := range queries {
		records = append(records, rec(t, q))
	}
	for _, m := range []Measure{MeasureText, MeasureFeatures, MeasureTemplate, MeasureOutput} {
		for i := range records {
			for j := range records {
				s := Similarity(m, records[i], records[j])
				if s < 0 || s > 1 {
					t.Errorf("%v similarity out of range: %v", m, s)
				}
			}
		}
	}
}

func TestTemplateSimilarityIgnoresConstants(t *testing.T) {
	a := rec(t, "SELECT temp FROM WaterTemp WHERE temp < 18")
	b := rec(t, "SELECT temp FROM WaterTemp WHERE temp < 95")
	if s := Similarity(MeasureTemplate, a, b); s != 1.0 {
		t.Errorf("template similarity = %v, want 1 (same template)", s)
	}
	// Text similarity is below 1 because the constants differ.
	if s := Similarity(MeasureText, a, b); s >= 1.0 {
		t.Errorf("text similarity = %v, want < 1", s)
	}
}

func TestFeatureSimilarityOrdering(t *testing.T) {
	base := rec(t, "SELECT temp FROM WaterTemp WHERE temp < 18")
	near := rec(t, "SELECT temp, lake FROM WaterTemp WHERE temp < 18")
	far := rec(t, "SELECT ra, dec FROM Stars WHERE magnitude < 6")
	sNear := Similarity(MeasureFeatures, base, near)
	sFar := Similarity(MeasureFeatures, base, far)
	if sNear <= sFar {
		t.Errorf("feature similarity ordering wrong: near=%v far=%v", sNear, sFar)
	}
	if sFar != 0 {
		t.Errorf("unrelated queries should have 0 feature similarity, got %v", sFar)
	}
}

func TestOutputSimilarity(t *testing.T) {
	a := rec(t, "SELECT lake FROM WaterTemp")
	b := rec(t, "SELECT lake FROM WaterTemp WHERE temp < 100")
	c := rec(t, "SELECT lake FROM WaterTemp WHERE temp < 0")
	a.Sample = &storage.OutputSample{Rows: [][]string{{"Lake Washington"}, {"Lake Union"}}}
	b.Sample = &storage.OutputSample{Rows: [][]string{{"Lake Washington"}, {"Lake Union"}}}
	c.Sample = &storage.OutputSample{Rows: [][]string{}}
	if s := Similarity(MeasureOutput, a, b); s != 1.0 {
		t.Errorf("identical samples similarity = %v, want 1", s)
	}
	if s := Similarity(MeasureOutput, a, c); s != 0.0 {
		t.Errorf("disjoint samples similarity = %v, want 0", s)
	}
	// Missing samples yield zero similarity rather than an error.
	d := rec(t, "SELECT lake FROM WaterTemp")
	if s := Similarity(MeasureOutput, a, d); s != 0.0 {
		t.Errorf("missing sample similarity = %v, want 0", s)
	}
}

func TestCompositeSimilarity(t *testing.T) {
	a := rec(t, "SELECT temp FROM WaterTemp WHERE temp < 18")
	b := rec(t, "SELECT temp FROM WaterTemp WHERE temp < 22")
	c := rec(t, "SELECT ra FROM Stars")
	w := DefaultWeights()
	sab := CompositeSimilarity(w, a, b)
	sac := CompositeSimilarity(w, a, c)
	if sab <= sac {
		t.Errorf("composite ordering wrong: %v vs %v", sab, sac)
	}
	if sab < 0 || sab > 1 {
		t.Errorf("composite out of range: %v", sab)
	}
	if s := CompositeSimilarity(CompositeWeights{}, a, b); s != 0 {
		t.Errorf("zero weights should give 0, got %v", s)
	}
}

func TestPairwiseMatrixSymmetric(t *testing.T) {
	records := []*storage.QueryRecord{
		rec(t, "SELECT temp FROM WaterTemp"),
		rec(t, "SELECT salinity FROM WaterSalinity"),
		rec(t, "SELECT temp FROM WaterTemp WHERE temp < 18"),
	}
	m := PairwiseMatrix(MeasureFeatures, records)
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal[%d] = %v, want 1", i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix not symmetric at %d,%d", i, j)
			}
		}
	}
}

func TestMeasureString(t *testing.T) {
	names := map[Measure]string{
		MeasureText: "text", MeasureFeatures: "features",
		MeasureTemplate: "template", MeasureOutput: "output", Measure(99): "unknown",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Measure(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestTrigramSimilarityEdgeCases(t *testing.T) {
	text := func(s string) *storage.QueryRecord { return &storage.QueryRecord{Canonical: s} }
	if s := Similarity(MeasureText, text(""), text("")); s != 1 {
		t.Errorf("empty strings = %v, want 1", s)
	}
	if s := Similarity(MeasureText, text("ab"), text("AB")); s != 1 {
		t.Errorf("short equal strings = %v, want 1", s)
	}
	if s := Similarity(MeasureText, text("abc"), text(" ")); s != 0 {
		t.Errorf("one empty = %v, want 0", s)
	}
	if s := Similarity(MeasureText, text("ab"), text("abc")); s != 0 {
		t.Errorf("short string vs its trigram = %v, want 0", s)
	}
}
