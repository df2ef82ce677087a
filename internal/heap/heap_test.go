package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/page"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestPutGetDelete(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Put(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(1)
	if err != nil || !ok || string(got) != "hello" {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	if _, ok, _ := s.Get(2); ok {
		t.Error("Get of an absent object reported ok")
	}
	if len(s.table) != 1 {
		t.Errorf("Len = %d", len(s.table))
	}
	// Overwrite.
	if err := s.Put(1, []byte("world, a longer record")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get(1)
	if string(got) != "world, a longer record" {
		t.Fatalf("after overwrite: %q", got)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(1); ok {
		t.Fatal("deleted object still present")
	}
	if err := s.Delete(1); err != nil {
		t.Fatal("double delete should be a no-op")
	}
}

func TestManyObjectsAcrossPages(t *testing.T) {
	s, _ := openTemp(t)
	const n = 2000
	img := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 50+i%200)
	}
	for i := 1; i <= n; i++ {
		if err := s.Put(oid.OID(i), img(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.table) != n {
		t.Fatalf("Len = %d, want %d", len(s.table), n)
	}
	for i := 1; i <= n; i++ {
		got, ok, err := s.Get(oid.OID(i))
		if err != nil || !ok || !bytes.Equal(got, img(i)) {
			t.Fatalf("object %d corrupt", i)
		}
	}
}

func TestGrowingUpdateRelocates(t *testing.T) {
	s, _ := openTemp(t)
	// Fill a page region, then grow one object past in-page capacity.
	for i := 1; i <= 50; i++ {
		s.Put(oid.OID(i), bytes.Repeat([]byte("x"), 150))
	}
	big := bytes.Repeat([]byte("B"), 7000)
	if err := s.Put(1, big); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(1)
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("relocated object corrupt")
	}
	// Everything else intact.
	for i := 2; i <= 50; i++ {
		if got, ok, _ := s.Get(oid.OID(i)); !ok || len(got) != 150 {
			t.Fatalf("object %d damaged by relocation", i)
		}
	}
}

func TestOversizedRejected(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Put(1, make([]byte, 9000)); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		s.Put(oid.OID(i), []byte(fmt.Sprintf("obj-%d", i)))
	}
	meta := []byte("checkpoint-meta")
	if err := s.Checkpoint(meta); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !bytes.Equal(s2.Meta(), meta) {
		t.Fatalf("meta = %q", s2.Meta())
	}
	if len(s2.table) != 100 {
		t.Fatalf("Len after reopen = %d", len(s2.table))
	}
	got, ok, _ := s2.Get(42)
	if !ok || string(got) != "obj-42" {
		t.Fatalf("object 42 = %q, %v", got, ok)
	}
}

func TestReopenWithoutIndexScans(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	for i := 1; i <= 50; i++ {
		s.Put(oid.OID(i), []byte(fmt.Sprintf("v-%d", i)))
	}
	s.Checkpoint(nil)
	s.Close()

	// Remove the side index: the store must rebuild from the pages.
	if err := os.Remove(filepath.Join(dir, "objects.idx")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.table) != 50 {
		t.Fatalf("rebuilt Len = %d", len(s2.table))
	}
	got, ok, _ := s2.Get(7)
	if !ok || string(got) != "v-7" {
		t.Fatalf("rebuilt object 7 = %q", got)
	}
}

func TestCorruptIndexFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	for i := 1; i <= 20; i++ {
		s.Put(oid.OID(i), []byte("data"))
	}
	s.Checkpoint(nil)
	s.Close()

	idx := filepath.Join(dir, "objects.idx")
	data, _ := os.ReadFile(idx)
	data[len(data)-1] ^= 0xFF // break the CRC
	os.WriteFile(idx, data, 0o644)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.table) != 20 {
		t.Fatalf("Len after corrupt index = %d", len(s2.table))
	}
}

// TestScanOnePageInSlotOrder: records sharing a page come back in slot
// order — for fresh puts, the order they were put in — not OID order.
func TestScanOnePageInSlotOrder(t *testing.T) {
	s, _ := openTemp(t)
	put := []oid.OID{5, 3, 9, 1}
	for _, id := range put {
		s.Put(id, []byte{byte(id)})
	}
	var order []oid.OID
	s.Scan(func(id oid.OID, img []byte) error {
		if len(img) != 1 || img[0] != byte(id) {
			t.Fatalf("object %d: image %v", id, img)
		}
		order = append(order, id)
		return nil
	})
	if fmt.Sprint(order) != fmt.Sprint(put) {
		t.Fatalf("Scan order %v, want %v", order, put)
	}
}

func TestRescanMatchesTable(t *testing.T) {
	s, _ := openTemp(t)
	for i := 1; i <= 200; i++ {
		s.Put(oid.OID(i), bytes.Repeat([]byte{1}, i%300+1))
	}
	for i := 1; i <= 200; i += 3 {
		s.Delete(oid.OID(i))
	}
	before := len(s.table)
	if err := s.Rescan(); err != nil {
		t.Fatal(err)
	}
	if len(s.table) != before {
		t.Fatalf("rescan changed Len: %d -> %d", before, len(s.table))
	}
	for i := 1; i <= 200; i++ {
		_, ok, _ := s.Get(oid.OID(i))
		wantOK := i%3 != 1
		if ok != wantOK {
			t.Fatalf("object %d: present=%v want %v", i, ok, wantOK)
		}
	}
}

// TestRandomOpsAgainstModel runs a random workload against a map model with
// periodic checkpoints and reopens.
func TestRandomOpsAgainstModel(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	model := map[oid.OID][]byte{}

	reopen := func() {
		if err := s.Checkpoint(nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
	}

	for op := 0; op < 3000; op++ {
		id := oid.OID(rng.Intn(150) + 1)
		switch r := rng.Intn(10); {
		case r < 6:
			img := make([]byte, rng.Intn(500)+1)
			rng.Read(img)
			if err := s.Put(id, img); err != nil {
				t.Fatal(err)
			}
			model[id] = img
		case r < 8:
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		default:
			got, ok, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := model[id]
			if ok != wantOK || (ok && !bytes.Equal(got, want)) {
				t.Fatalf("op %d: object %d diverged", op, id)
			}
		}
		if op%997 == 0 && op > 0 {
			reopen()
		}
	}
	// Final verification.
	if len(s.table) != len(model) {
		t.Fatalf("Len = %d, model = %d", len(s.table), len(model))
	}
	for id, want := range model {
		got, ok, _ := s.Get(id)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("final: object %d diverged", id)
		}
	}
	s.Close()
}

// rid is a record's place: page + slot.
type rid struct {
	Page page.ID
	Slot int
}

func ridOf(e entry) rid { return rid{e.page, int(e.slot)} }

// scanPlacer is the placement algorithm the free-space map replaced, kept as
// the reference the store is compared against: a free-byte hint per page in
// a map, and on every insert a scan of all hints, a sort of the candidates
// and first fit among them.
type scanPlacer struct {
	pages []*page.Page
	table map[oid.OID]rid
	free  map[page.ID]int
}

func newScanPlacer() *scanPlacer {
	return &scanPlacer{table: map[oid.OID]rid{}, free: map[page.ID]int{}}
}

func (r *scanPlacer) put(id oid.OID, img []byte) {
	rec := encodeRecord(id, img)
	if rid, ok := r.table[id]; ok {
		pg := r.pages[rid.Page]
		if pg.Update(rid.Slot, rec) {
			r.free[rid.Page] = pg.Reclaimable()
			return
		}
		pg.Delete(rid.Slot)
		r.free[rid.Page] = pg.Reclaimable()
		delete(r.table, id)
	}
	var cands []page.ID
	for pid, free := range r.free {
		if free >= len(rec) {
			cands = append(cands, pid)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, pid := range cands {
		slot, ok := r.pages[pid].Insert(rec)
		r.free[pid] = r.pages[pid].Reclaimable()
		if ok {
			r.table[id] = rid{Page: pid, Slot: slot}
			return
		}
	}
	pg := page.Wrap(make([]byte, page.Size))
	pg.Init()
	pid := page.ID(len(r.pages))
	r.pages = append(r.pages, pg)
	slot, _ := pg.Insert(rec)
	r.free[pid] = pg.Reclaimable()
	r.table[id] = rid{Page: pid, Slot: slot}
}

func (r *scanPlacer) del(id oid.OID) {
	rid, ok := r.table[id]
	if !ok {
		return
	}
	r.pages[rid.Page].Delete(rid.Slot)
	r.free[rid.Page] = r.pages[rid.Page].Reclaimable()
	delete(r.table, id)
}

// TestPlacementMatchesFirstFitScan: over random insert/update/delete streams
// the store puts every record at the RID the scan-and-sort reference picks.
func TestPlacementMatchesFirstFitScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s, _ := openTemp(t)
		ref := newScanPlacer()
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 6000; op++ {
			id := oid.OID(rng.Intn(1500) + 1)
			if rng.Intn(10) < 7 {
				size := rng.Intn(600) + 1
				if rng.Intn(40) == 0 {
					size = 2000 + rng.Intn(6000)
				}
				img := make([]byte, size)
				if err := s.Put(id, img); err != nil {
					t.Fatal(err)
				}
				ref.put(id, img)
			} else {
				if err := s.Delete(id); err != nil {
					t.Fatal(err)
				}
				ref.del(id)
			}
			if got, want := ridOf(s.table[id]), ref.table[id]; got != want {
				t.Fatalf("seed %d op %d: object %d placed at %v, reference says %v", seed, op, id, got, want)
			}
		}
		if len(s.table) != len(ref.table) {
			t.Fatalf("seed %d: store holds %d objects, reference %d", seed, len(s.table), len(ref.table))
		}
		for id, want := range ref.table {
			if got := ridOf(s.table[id]); got != want {
				t.Fatalf("seed %d: object %d at %v, reference says %v", seed, id, got, want)
			}
		}
		if got, want := int(s.pool.NumPages()), len(ref.pages); got != want {
			t.Fatalf("seed %d: %d pages, reference has %d", seed, got, want)
		}
	}
}

// TestDeletedSpaceIsReused: deleting a record must raise its page's hint, or
// the file grows by a full population on every insert/delete round.
func TestDeletedSpaceIsReused(t *testing.T) {
	s, _ := openTemp(t)
	const n = 5000
	img := make([]byte, 300)
	var first int
	for round := 1; round <= 5; round++ {
		for i := 1; i <= n; i++ {
			if err := s.Put(oid.OID(round*n+i), img); err != nil {
				t.Fatal(err)
			}
		}
		pages := int(s.pool.NumPages())
		if round == 1 {
			first = pages
		}
		if pages > first+1 {
			t.Fatalf("round %d: %d pages, round 1 needed %d", round, pages, first)
		}
		for i := 1; i <= n; i++ {
			if err := s.Delete(oid.OID(round*n + i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScanPageOrder: Scan reports every live object exactly once with its
// current image, in page order, and leaves the store unlocked for fn.
func TestScanPageOrder(t *testing.T) {
	s, _ := openTemp(t)
	rng := rand.New(rand.NewSource(3))
	model := map[oid.OID][]byte{}
	for op := 0; op < 4000; op++ {
		id := oid.OID(rng.Intn(600) + 1)
		if rng.Intn(4) == 0 {
			s.Delete(id)
			delete(model, id)
			continue
		}
		img := make([]byte, rng.Intn(700)+1)
		rng.Read(img)
		if err := s.Put(id, img); err != nil {
			t.Fatal(err)
		}
		model[id] = img
	}
	seen := map[oid.OID]bool{}
	last := page.ID(0)
	err := s.Scan(func(id oid.OID, img []byte) error {
		if seen[id] {
			t.Fatalf("object %d reported twice", id)
		}
		seen[id] = true
		if !bytes.Equal(img, model[id]) {
			t.Fatalf("object %d: scan image differs from the last Put", id)
		}
		if pid := s.table[id].page; pid < last {
			t.Fatalf("object %d on page %d reported after page %d", id, pid, last)
		} else {
			last = pid
		}
		// The callback may use the store.
		if got, ok, err := s.Get(id); err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("Get(%d) inside Scan = %v, %v", id, ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(model) {
		t.Fatalf("scan reported %d objects, model has %d", len(seen), len(model))
	}
	// A table entry no page backs is reported, not silently skipped.
	s.table[9999] = entry{page: 0, slot: 9999}
	if err := s.Scan(func(oid.OID, []byte) error { return nil }); err == nil {
		t.Fatal("scan over a table entry pointing at no record returned nil")
	}
	delete(s.table, 9999)
}

// BenchmarkInsert measures one insert (plus the delete that keeps the live
// set, and so the file, from growing) behind a prefix of full pages that
// placement has to look past: unformatted pages report no room, so a sparse
// file stands in for that many pages of records. The cost must not grow with
// the prefix.
func BenchmarkInsert(b *testing.B) {
	for _, pages := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			dir := b.TempDir()
			f, err := os.Create(filepath.Join(dir, dataFile))
			if err == nil {
				err = f.Truncate(int64(pages) * page.Size)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				b.Fatal(err)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			img := make([]byte, 300)
			const window = 100 // live records: about four pages
			for i := 1; i <= window; i++ {
				if err := s.Put(oid.OID(i), img); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := window + 1; i <= window+b.N; i++ {
				if err := s.Put(oid.OID(i), img); err != nil {
					b.Fatal(err)
				}
				if err := s.Delete(oid.OID(i - window)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestScanBesideWrites runs Scan while another goroutine puts and deletes:
// objects nobody touches are each reported once with their image intact.
func TestScanBesideWrites(t *testing.T) {
	s, _ := openTemp(t)
	const stable, churn = 400, 200
	img := func(id oid.OID) []byte { return bytes.Repeat([]byte{byte(id)}, 100+int(id)%300) }
	for id := oid.OID(1); id <= stable; id++ {
		if err := s.Put(id, img(id)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := oid.OID(stable + 1 + rng.Intn(churn))
			var err error
			if rng.Intn(3) == 0 {
				err = s.Delete(id)
			} else {
				err = s.Put(id, make([]byte, rng.Intn(900)+1))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 20; round++ {
		seen := map[oid.OID]int{}
		err := s.Scan(func(id oid.OID, got []byte) error {
			seen[id]++
			if id <= stable && !bytes.Equal(got, img(id)) {
				t.Errorf("round %d: object %d image damaged", round, id)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := oid.OID(1); id <= stable; id++ {
			if seen[id] != 1 {
				t.Fatalf("round %d: untouched object %d reported %d times", round, id, seen[id])
			}
		}
	}
	close(stop)
	<-done
}
