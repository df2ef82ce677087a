package heap

// The object table records each object's class: Put reads it with
// Options.ClassOf, PutClass takes it from the caller, Objects and Classes
// report it, the v2 objects.idx persists it, and a page-scan rebuild (a
// missing, corrupt or v1 index, or Rescan) reads it back from the images.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/vfs"
)

// classOf reads the class of a test image: the bytes before its first ':'.
func classOf(img []byte) (string, error) {
	cls, _, ok := bytes.Cut(img, []byte(":"))
	if !ok {
		return "", errors.New("image has no class")
	}
	return string(cls), nil
}

func classImg(cls string, size int) []byte {
	img := append([]byte(cls+":"), bytes.Repeat([]byte{'x'}, size)...)
	return img
}

func openClasses(t testing.TB, fs vfs.FS) *Store {
	t.Helper()
	s, err := Open("d", Options{PoolPages: 4, VFS: fs, ClassOf: classOf})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func objectsOf(s *Store) map[oid.OID]string {
	out := make(map[oid.OID]string)
	for _, o := range s.Objects() {
		out[o.ID] = o.Class
	}
	return out
}

// checkLiveCounts verifies every class's live count against the table.
func checkLiveCounts(t testing.TB, s *Store) {
	t.Helper()
	live := make([]int, len(s.classes))
	for _, e := range s.table {
		live[e.cls]++
	}
	for c, cls := range s.classes {
		if cls.live != live[c] {
			t.Fatalf("class %q counts %d live objects, the table holds %d", cls.name, cls.live, live[c])
		}
	}
}

// v1Index encodes s's table in the v1 objects.idx format: entries without
// classes, no class names.
func v1Index(s *Store, meta []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, indexMagicV1)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.AppendUvarint(buf, uint64(len(s.table)))
	ids := make([]oid.OID, 0, len(s.table))
	for id := range s.table {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		e := s.table[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(e.page))
		buf = binary.AppendUvarint(buf, uint64(e.slot))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

func TestClassesFollowPutsAndDeletes(t *testing.T) {
	s := openClasses(t, vfs.NewMem())
	defer s.Close()
	for i := 1; i <= 40; i++ {
		cls := []string{"Emp", "Dept"}[i%2]
		if err := s.Put(oid.OID(i), classImg(cls, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutClass(41, "Given", []byte("no class in here")); err != nil {
		t.Fatal(err)
	}
	// Replace in place with another class, and relocate with another.
	if err := s.Put(2, classImg("Mgr", 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(4, classImg("Mgr", 7000)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 39; i += 2 { // every Dept
		if err := s.Delete(oid.OID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Classes(), []string{"Emp", "Given", "Mgr"}; !slices.Equal(got, want) {
		t.Fatalf("Classes = %v, want %v", got, want)
	}
	got := objectsOf(s)
	if len(got) != 21 || got[2] != "Mgr" || got[4] != "Mgr" || got[6] != "Emp" || got[41] != "Given" {
		t.Fatalf("Objects = %v", got)
	}
	checkLiveCounts(t, s)
	if err := s.Put(42, []byte("classless")); err == nil {
		t.Fatal("Put of an image ClassOf cannot read succeeded")
	}
}

// TestClassesSurviveReopen: the classes come back identical from a v2 index,
// from a page scan with no index, from Rescan, and from a v1 index — whose
// metadata blob is kept.
func TestClassesSurviveReopen(t *testing.T) {
	fs := vfs.NewMem()
	s := openClasses(t, fs)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 600; op++ {
		id := oid.OID(rng.Intn(150) + 1)
		if rng.Intn(5) == 0 {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		cls := fmt.Sprintf("C%d", rng.Intn(6))
		if err := s.Put(id, classImg(cls, rng.Intn(900))); err != nil {
			t.Fatal(err)
		}
	}
	want := objectsOf(s)
	meta := []byte("meta")
	if err := s.Checkpoint(meta); err != nil {
		t.Fatal(err)
	}
	v1 := v1Index(s, meta)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(what string) {
		t.Helper()
		s := openClasses(t, fs)
		defer s.Close()
		if got := objectsOf(s); !maps.Equal(got, want) {
			t.Fatalf("%s: %d objects with classes differ from the %d written", what, len(got), len(want))
		}
		checkLiveCounts(t, s)
		if err := s.Rescan(); err != nil {
			t.Fatal(err)
		}
		if got := objectsOf(s); !maps.Equal(got, want) {
			t.Fatalf("%s, then Rescan: classes differ", what)
		}
		if what != "no index" && !bytes.Equal(s.Meta(), meta) {
			t.Fatalf("%s: meta = %q, want %q", what, s.Meta(), meta)
		}
	}
	reopen("v2 index")
	if err := fs.Remove("d/objects.idx"); err != nil {
		t.Fatal(err)
	}
	reopen("no index")
	if err := vfs.WriteFile(fs, "d/objects.idx", v1, 0o644); err != nil {
		t.Fatal(err)
	}
	reopen("v1 index")
}

// TestClassIterationBesideWrites runs Objects, Classes and Scan on several
// goroutines while another puts and deletes: objects nobody touches are
// always reported, each once, with their class. Run it under -race.
func TestClassIterationBesideWrites(t *testing.T) {
	s := openClasses(t, vfs.NewMem())
	defer s.Close()
	const stable, churn = 300, 200
	for id := oid.OID(1); id <= stable; id++ {
		if err := s.Put(id, classImg("Stable", int(id)%200)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(11))
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
				err = s.Put(id, classImg([]string{"A", "B"}[rng.Intn(2)], rng.Intn(900)))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 30; round++ {
				n := 0
				for _, o := range s.Objects() {
					if o.ID <= stable {
						n++
						if o.Class != "Stable" {
							t.Errorf("object %d reported with class %q", o.ID, o.Class)
						}
					}
				}
				if n != stable {
					t.Errorf("Objects reported %d of %d untouched objects", n, stable)
				}
				if !slices.Contains(s.Classes(), "Stable") {
					t.Error("Classes lost Stable")
				}
				seen := 0
				if err := s.Scan(func(id oid.OID, _ []byte) error {
					if id <= stable {
						seen++
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
				if seen != stable {
					t.Errorf("Scan reported %d of %d untouched objects", seen, stable)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	checkLiveCounts(t, s)
}

// FuzzLoadIndex opens a store whose objects.idx is the fuzz input, beside a
// fixed objects.dat. The open must never fail or panic (a bad index falls
// back to the page scan), and a table other than the page scan's can only
// come from a checksummed v2 file. With fixCRC the input's last four bytes
// are replaced by its checksum, so mutations reach the decoder.
func FuzzLoadIndex(f *testing.F) {
	fs := vfs.NewMem()
	s := openClasses(f, fs)
	for id := oid.OID(1); id <= 60; id++ {
		if err := s.Put(id, classImg(fmt.Sprintf("C%d", id%4), int(id)*20)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete(17); err != nil {
		f.Fatal(err)
	}
	scanned := objectsOf(s)
	if err := s.Checkpoint([]byte("meta")); err != nil {
		f.Fatal(err)
	}
	v1 := v1Index(s, []byte("meta"))
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	dat, err := fs.ReadFile("d/objects.dat")
	if err != nil {
		f.Fatal(err)
	}
	v2, err := fs.ReadFile("d/objects.idx")
	if err != nil {
		f.Fatal(err)
	}

	f.Add(v2, false)
	f.Add(v1, false)
	for _, n := range []int{0, 4, 8, 20, len(v2) / 2, len(v2) - 1} {
		f.Add(v2[:n], false)
		f.Add(v2[:n], true)
	}
	f.Add(v1[:len(v1)/2], true)

	f.Fuzz(func(t *testing.T, idx []byte, fixCRC bool) {
		idx = bytes.Clone(idx)
		if fixCRC && len(idx) >= 8 {
			binary.LittleEndian.PutUint32(idx[len(idx)-4:], crc32.Checksum(idx[:len(idx)-4], castagnoli))
		}
		mem := vfs.NewMem()
		mem.Install(map[string][]byte{"d/objects.dat": dat, "d/objects.idx": idx})
		s, err := Open("d", Options{PoolPages: 4, VFS: mem, ClassOf: classOf})
		if err != nil {
			t.Fatalf("open with a fuzzed index failed: %v", err)
		}
		defer s.Close()
		checkLiveCounts(t, s)
		s.Classes()
		if got := objectsOf(s); !maps.Equal(got, scanned) {
			checksummed := len(idx) >= 8 &&
				binary.LittleEndian.Uint32(idx) == indexMagic &&
				binary.LittleEndian.Uint32(idx[len(idx)-4:]) == crc32.Checksum(idx[:len(idx)-4], castagnoli)
			if !checksummed {
				t.Fatal("a table other than the page scan's came from a file that is not a checksummed v2 index")
			}
		}
	})
}
