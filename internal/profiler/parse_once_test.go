package profiler_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestParsedFieldsMatchTextDerivation checks that the fields the profiler
// derives from its single parse of a statement equal the ones derived from
// the text alone, for every query of a generated trace submitted one by one
// and in batches.
func TestParsedFieldsMatchTextDerivation(t *testing.T) {
	trace := workload.Generate(workload.DefaultConfig())
	for _, batched := range []bool{false, true} {
		eng := engine.New()
		if err := workload.Populate(eng, 20, 1); err != nil {
			t.Fatal(err)
		}
		store := storage.NewStore()
		prof := profiler.New(eng, store, profiler.DefaultConfig())
		var subs []profiler.Submission
		for _, q := range trace.Queries {
			subs = append(subs, profiler.Submission{User: q.User, SQL: q.SQL, IssuedAt: q.IssuedAt})
		}
		if batched {
			for i := 0; i < len(subs); i += 50 {
				_, errs := prof.SubmitBatch(subs[i:min(i+50, len(subs))])
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		} else {
			for _, sub := range subs {
				if _, err := prof.Submit(sub); err != nil {
					t.Fatal(err)
				}
			}
		}

		records := store.Snapshot().Records(storage.Principal{Admin: true})
		if len(records) != len(trace.Queries) {
			t.Fatalf("batched=%v: logged %d of %d queries", batched, len(records), len(trace.Queries))
		}
		for _, rec := range records {
			canonical, err := sql.Canonical(rec.Text)
			if err != nil {
				t.Fatal(err)
			}
			stmt, _ := sql.Parse(rec.Text)
			var features []string
			if sel, ok := stmt.(*sql.SelectStmt); ok {
				features = sql.Analyze(sel).FeatureSet()
			}
			if rec.Canonical != canonical || rec.Template != sql.TemplateText(rec.Text) ||
				rec.Fingerprint != sql.Fingerprint(rec.Text) || rec.ExactHash != sql.ExactFingerprint(rec.Text) ||
				!reflect.DeepEqual(rec.Features, features) {
				t.Fatalf("batched=%v: fields of %q differ from its text's derivation", batched, rec.Text)
			}
		}
	}
}
