package heap

// Crash-consistency regression tests for the checkpoint index, driven by
// the fault-injecting VFS. The historical bug: writeIndexLocked wrote the
// temp index with no fsync before the rename, so a power cut could journal
// the rename while the index data was still in the page cache — leaving an
// empty objects.idx behind the new name, which silently discarded the
// checkpoint metadata blob (OID high-water mark, logical clock, catalog
// roots) on the next open.

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/vfs"
)

// reopenAtCrash materializes the crash state at the given cut point and
// opens a fresh store on it.
func reopenAtCrash(t *testing.T, fault *vfs.Fault, upTo int, mode vfs.CrashMode) *Store {
	t.Helper()
	mem := vfs.NewMem()
	mem.Install(fault.CrashState(upTo, mode))
	s, err := Open("dir", Options{PoolPages: 16, VFS: mem})
	if err != nil {
		t.Fatalf("reopen at crash point %d (%v): %v", upTo, mode, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCheckpointMetaSurvivesMetadataCrash is the regression test for the
// missing-fsync bug: after Checkpoint returns, a power cut that persists
// the rename but drops unsynced file data (vfs.CrashMetadata) must still
// leave the metadata blob and the object table readable. Against the
// pre-fix writeIndexLocked (os.WriteFile + os.Rename, no fsync) the index
// materializes as an empty file and the meta blob comes back nil.
func TestCheckpointMetaSurvivesMetadataCrash(t *testing.T) {
	fault := vfs.NewFault()
	s, err := Open("dir", Options{PoolPages: 16, VFS: fault})
	if err != nil {
		t.Fatal(err)
	}
	meta := []byte("high-water=42 clock=99")
	for i := 1; i <= 10; i++ {
		if err := s.Put(oid.OID(i), []byte(fmt.Sprintf("object-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(meta); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, mode := range vfs.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			r := reopenAtCrash(t, fault, fault.Ops(), mode)
			if got := r.Meta(); !bytes.Equal(got, meta) {
				t.Fatalf("meta after %v crash = %q, want %q", mode, got, meta)
			}
			if len(r.table) != 10 {
				t.Fatalf("object table after %v crash has %d entries, want 10", mode, len(r.table))
			}
			img, ok, err := r.Get(oid.OID(7))
			if err != nil || !ok || string(img) != "object-7" {
				t.Fatalf("Get(7) after %v crash = %q, %v, %v", mode, img, ok, err)
			}
		})
	}
}

// TestPreFixSaveIndexLosesMeta documents what the regression above pins
// down: replaying the pre-fix syscall sequence (write temp, no fsync,
// rename) through the fault VFS yields exactly the empty-index crash
// state, proving the test discriminates between the broken and fixed
// sequences rather than passing vacuously.
func TestPreFixSaveIndexLosesMeta(t *testing.T) {
	fault := vfs.NewFault()
	s, err := Open("dir", Options{PoolPages: 16, VFS: fault})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(oid.OID(1), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Flush data pages like Checkpoint does, then run the PRE-FIX index
	// replace: os.WriteFile semantics (create/truncate + write, no sync)
	// followed by rename, with no directory sync.
	if err := s.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	f, err := fault.OpenFile("dir/objects.idx.tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("pretend-index-bytes")); err != nil {
		t.Fatal(err)
	}
	f.Close() // no Sync: the bug
	if err := fault.Rename("dir/objects.idx.tmp", "dir/objects.idx"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	st := fault.CrashState(fault.Ops(), vfs.CrashMetadata)
	if data, ok := st["dir/objects.idx"]; !ok || len(data) != 0 {
		t.Fatalf("pre-fix sequence: idx = %q (present=%v), want present and EMPTY", data, ok)
	}
	// The store still opens (rebuildIndex recovers the table from the
	// pages) but the metadata blob is gone — the observable data loss.
	r := reopenAtCrash(t, fault, fault.Ops(), vfs.CrashMetadata)
	if got := r.Meta(); len(got) != 0 {
		t.Fatalf("meta = %q, want lost (empty) under the pre-fix sequence", got)
	}
	if len(r.table) != 1 {
		t.Fatalf("rebuilt table has %d entries, want 1", len(r.table))
	}
}
