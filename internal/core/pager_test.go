package core

import (
	"io"
	"testing"

	"sentinel/internal/schema"
	"sentinel/internal/value"
)

// TestCreateIndexBackfillSweepsLinear: CreateIndex reads every instance in
// one transaction, so each one is pinned and nothing can be evicted. The
// evictor must notice its sweeps are futile and back off, not walk the whole
// directory again on every further fault.
func TestCreateIndexBackfillSweepsLinear(t *testing.T) {
	const n, resident = 20000, 1024
	db := MustOpen(Options{Output: io.Discard, Dir: t.TempDir(), MaxResidentObjects: resident})
	defer db.Close()
	cls := schema.NewClass("Item")
	cls.Persistent = true
	cls.Attr("k", value.TypeInt)
	db.MustRegisterClass(cls)
	for lo := 0; lo < n; lo += 500 {
		if err := db.Atomically(func(tx *Tx) error {
			for i := lo; i < lo+500; i++ {
				if _, err := db.NewObject(tx, "Item", map[string]value.Value{"k": value.Int(int64(i % 97))}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.dir.resident.Load(); got > 2*resident {
		t.Fatalf("%d objects resident after populating, ceiling %d", got, resident)
	}

	before := db.dir.visited.Load()
	if err := db.Atomically(func(tx *Tx) error {
		h, err := db.CreateIndex(tx, "Item", "k")
		if err == nil && h.Len() != n {
			t.Errorf("index holds %d entries, want %d", h.Len(), n)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// One sweep is two passes over the directory; geometric back-off keeps
	// the total a small multiple of n, where a sweep per fault is n²-ish
	// (about 20,000·n here).
	if visits := db.dir.visited.Load() - before; visits > 64*n {
		t.Errorf("evictor examined %d entries backfilling %d objects (%d per object)", visits, n, visits/n)
	}
	// The backfill's pins are gone, so commit trimmed residency again.
	if got := db.dir.resident.Load(); got > 2*resident {
		t.Errorf("%d objects resident after the backfill committed, ceiling %d", got, resident)
	}
}
