package core

// A database written before objects.idx carried each object's class (index
// format v1) opens under this build. The heap rebuilds its object table by
// page scan and keeps the v1 file's metadata blob, so the OID high-water,
// logical clock, DSL class sequence, replication LSN and epoch all survive:
// losing the clock would reissue occurrence sequence numbers, losing the
// epoch would break fencing.
//
// testdata/v1index is that database, written by a v1 build with:
//
//	Exec: class Kit reactive persistent { attr n int; attr tag int;
//	      event end method Set(v int) { self.n := v } }
//	      class Tag persistent { attr s string }
//	      bind K0 new Kit(n: 0)  bind K1 new Kit(n: 1)  bind T0 new Tag(s: "a")
//	one transaction: DefineEvent KitSet "end Kit::Set(int v)", CreateRule
//	      watch on it printing "", SubscribeRule watch K0, CreateIndex Kit.n
//	Exec: K0!Set(5), K1!Set(6), K0!Set(7)
//	create an unnamed Tag (OID 13), then delete it in a second transaction
//	SetReplEpoch(5), Close

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/vfs"
)

func TestV1DatabaseKeepsMeta(t *testing.T) {
	files := make(map[string][]byte)
	for _, name := range []string{"objects.dat", "objects.idx", "sentinel.wal"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1index", name))
		if err != nil {
			t.Fatal(err)
		}
		files["db/"+name] = b
	}
	if magic := binary.LittleEndian.Uint32(files["db/objects.idx"]); magic != 0x53454E54 {
		t.Fatalf("fixture objects.idx has magic %#x, want the v1 magic", magic)
	}
	fs := vfs.NewMem()
	fs.Install(files)
	opts := Options{Dir: "db", VFS: fs, Output: io.Discard}

	type meta struct {
		hw         oid.OID
		clock      uint64
		seq        int
		lsn, epoch uint64
	}
	check := func(db *Database, want meta) {
		t.Helper()
		lsn, epoch := db.replPosition()
		if got := (meta{db.alloc.HighWater(), db.clock.Load(), db.dslClassSeq, lsn, epoch}); got != want {
			t.Fatalf("meta = %+v, want %+v", got, want)
		}
		if got := db.InstancesOf("Kit"); !slices.Equal(got, []oid.OID{3, 5}) {
			t.Fatalf("InstancesOf(Kit) = %v, want [3 5]", got)
		}
		if problems := db.CheckIntegrity(); len(problems) > 0 {
			t.Fatalf("integrity: %v", problems)
		}
		if _, ok := db.LookupEvent("KitSet"); !ok || db.LookupRule("watch") == nil || db.Index("Kit", "n") == nil {
			t.Fatal("named event, rule or index lost")
		}
	}

	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	check(db, meta{hw: 13, clock: 3, seq: 2, lsn: 7, epoch: 5})
	if got := db.InstancesOf("Tag"); !slices.Equal(got, []oid.OID{7}) {
		t.Fatalf("InstancesOf(Tag) = %v, want [7]", got)
	}

	// The deleted Tag's OID 13 is above every live object: only the kept
	// high-water keeps it from being issued again.
	if err := db.Exec(`K1!Set(8) bind T2 new Tag(s: "c")`); err != nil {
		t.Fatal(err)
	}
	t2, _ := db.Lookup("T2")
	if t2 != 14 {
		t.Fatalf("new Tag got OID %v, want 14", t2)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if idx, _ := fs.ReadFile("db/objects.idx"); binary.LittleEndian.Uint32(idx) != 0x53454E32 {
		t.Fatal("close did not rewrite objects.idx in the v2 format")
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, meta{hw: 15, clock: 4, seq: 2, lsn: 8, epoch: 5})
	if got := db.InstancesOf("Tag"); !slices.Equal(got, []oid.OID{7, 14}) {
		t.Fatalf("InstancesOf(Tag) after the write = %v, want [7 14]", got)
	}
}
