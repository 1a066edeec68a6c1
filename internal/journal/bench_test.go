package journal

import (
	"path/filepath"
	"testing"
)

// BenchmarkJournalAppend times checkpointing one cell: encoding a
// one-row record and writing its line to a journal in a temporary
// directory.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := Create(filepath.Join(b.TempDir(), "bench.journal"), "fp")
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := Record{
		Experiment: "fig12",
		Cell:       "mcf/THS",
		Seed:       0xdeadbeefcafef00d,
		Rows:       [][]interface{}{{"mcf", "THS", 42, uint64(1) << 40, 3.14159265358979, true}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
