package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func freshPage() *Page {
	p := Wrap(make([]byte, Size))
	p.Init()
	return p
}

func TestInsertRead(t *testing.T) {
	p := freshPage()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte(""), []byte("gamma-longer-record")}
	slots := make([]int, len(recs))
	for i, r := range recs {
		s, ok := p.Insert(r)
		if !ok {
			t.Fatalf("insert %d failed", i)
		}
		slots[i] = s
	}
	for i, r := range recs {
		got, ok := p.Read(slots[i])
		if !ok || !bytes.Equal(got, r) {
			t.Fatalf("read slot %d = %q, %v; want %q", slots[i], got, ok, r)
		}
	}
	if _, ok := p.Read(99); ok {
		t.Error("read of out-of-range slot succeeded")
	}
	if _, ok := p.Read(-1); ok {
		t.Error("read of negative slot succeeded")
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	p := freshPage()
	s0, _ := p.Insert([]byte("one"))
	s1, _ := p.Insert([]byte("two"))
	if !p.Delete(s0) {
		t.Fatal("delete failed")
	}
	if p.Delete(s0) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := p.Read(s0); ok {
		t.Fatal("read of deleted slot succeeded")
	}
	// The tombstoned slot is reused.
	s2, ok := p.Insert([]byte("three"))
	if !ok || s2 != s0 {
		t.Fatalf("slot reuse: got %d, want %d", s2, s0)
	}
	if got, _ := p.Read(s1); !bytes.Equal(got, []byte("two")) {
		t.Fatal("neighbour record damaged")
	}
}

func TestUpdateInPlaceAndRelocate(t *testing.T) {
	p := freshPage()
	s, _ := p.Insert([]byte("1234567890"))
	// Shrinking update stays in place.
	if !p.Update(s, []byte("123")) {
		t.Fatal("shrinking update failed")
	}
	if got, _ := p.Read(s); !bytes.Equal(got, []byte("123")) {
		t.Fatalf("after shrink: %q", got)
	}
	// Growing update within page capacity.
	big := bytes.Repeat([]byte("x"), 500)
	if !p.Update(s, big) {
		t.Fatal("growing update failed")
	}
	if got, _ := p.Read(s); !bytes.Equal(got, big) {
		t.Fatal("after grow: mismatch")
	}
	if p.Update(99, []byte("x")) {
		t.Error("update of bad slot succeeded")
	}
}

func TestUpdateTooBigRestoresRecord(t *testing.T) {
	p := freshPage()
	s, _ := p.Insert([]byte("keep-me"))
	// Fill the page almost completely.
	filler := bytes.Repeat([]byte("f"), 1000)
	for {
		if _, ok := p.Insert(filler); !ok {
			break
		}
	}
	huge := bytes.Repeat([]byte("h"), 4000)
	if p.Update(s, huge) {
		t.Fatal("update should have failed for lack of space")
	}
	// The original record must still be readable.
	if got, ok := p.Read(s); !ok || !bytes.Equal(got, []byte("keep-me")) {
		t.Fatalf("record lost after failed update: %q, %v", got, ok)
	}
}

func TestFillToCapacityAndCompact(t *testing.T) {
	p := freshPage()
	rec := bytes.Repeat([]byte("r"), 100)
	var slots []int
	for {
		s, ok := p.Insert(rec)
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 70 {
		t.Fatalf("only %d records of 100 bytes fit in an 8 KiB page", len(slots))
	}
	// Delete every other record; compaction should make room again.
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
	}
	// A bigger record now fits thanks to compaction inside Insert.
	big := bytes.Repeat([]byte("B"), 150)
	if _, ok := p.Insert(big); !ok {
		t.Fatal("insert after deletions failed (compaction broken)")
	}
	// Surviving records are intact.
	for i := 1; i < len(slots); i += 2 {
		if got, ok := p.Read(slots[i]); !ok || !bytes.Equal(got, rec) {
			t.Fatalf("record %d damaged after compaction", slots[i])
		}
	}
}

func TestMaxRecord(t *testing.T) {
	p := freshPage()
	if _, ok := p.Insert(make([]byte, MaxRecord)); !ok {
		t.Fatal("MaxRecord-sized insert failed on an empty page")
	}
	p2 := freshPage()
	if _, ok := p2.Insert(make([]byte, MaxRecord+1)); ok {
		t.Fatal("oversized insert succeeded")
	}
}

func TestLiveRecords(t *testing.T) {
	p := freshPage()
	s0, _ := p.Insert([]byte("a"))
	s1, _ := p.Insert([]byte("b"))
	p.Insert([]byte("c"))
	p.Delete(s1)
	seen := map[int]string{}
	p.LiveRecords(func(slot int, rec []byte) {
		seen[slot] = string(rec)
	})
	if len(seen) != 2 || seen[s0] != "a" {
		t.Fatalf("LiveRecords = %v", seen)
	}
}

// TestRandomOpsAgainstModel drives random insert/update/delete against a
// map model and verifies the page agrees after every operation, and that
// Reclaimable predicts exactly which inserts fit.
func TestRandomOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := freshPage()
	model := map[int][]byte{} // slot -> record

	randRec := func() []byte {
		n := rng.Intn(300) + 1
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	slotsOf := func() []int {
		var out []int
		for s := range model {
			out = append(out, s)
		}
		return out
	}

	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert
			rec := randRec()
			fits := len(rec) <= p.Reclaimable()
			s, ok := p.Insert(rec)
			if ok != fits {
				t.Fatalf("op %d: insert of %d bytes = %v, Reclaimable said %v", op, len(rec), ok, fits)
			}
			if ok {
				model[s] = rec
			}
		case r < 8: // update
			slots := slotsOf()
			if len(slots) == 0 {
				continue
			}
			s := slots[rng.Intn(len(slots))]
			rec := randRec()
			if p.Update(s, rec) {
				model[s] = rec
			}
		default: // delete
			slots := slotsOf()
			if len(slots) == 0 {
				continue
			}
			s := slots[rng.Intn(len(slots))]
			if !p.Delete(s) {
				t.Fatalf("op %d: delete of live slot %d failed", op, s)
			}
			delete(model, s)
		}
		// Verify a random sample (full verification every 100 ops).
		if op%100 == 0 {
			for s, want := range model {
				got, ok := p.Read(s)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("op %d: slot %d diverged from model", op, s)
				}
			}
		}
	}
	// Final full check.
	count := 0
	p.LiveRecords(func(slot int, rec []byte) {
		count++
		if want, ok := model[slot]; !ok || !bytes.Equal(rec, want) {
			t.Fatalf("final: slot %d diverged", slot)
		}
	})
	if count != len(model) {
		t.Fatalf("live count %d != model %d", count, len(model))
	}
}

func TestWrapPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap with wrong size did not panic")
		}
	}()
	Wrap(make([]byte, 100))
}

func TestReclaimableDecreasesMonotonically(t *testing.T) {
	if got := Wrap(make([]byte, Size)).Reclaimable(); got != 0 {
		t.Fatalf("unformatted page reports %d bytes reclaimable", got)
	}
	p := freshPage()
	prev := p.Reclaimable()
	if prev != MaxRecord {
		t.Fatalf("empty page reports %d bytes reclaimable, want MaxRecord = %d", prev, MaxRecord)
	}
	for i := 0; i < 10; i++ {
		p.Insert([]byte(fmt.Sprintf("record-%d", i)))
		f := p.Reclaimable()
		if f >= prev {
			t.Fatalf("free space did not shrink: %d -> %d", prev, f)
		}
		prev = f
	}
}
