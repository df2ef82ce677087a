package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// fileOps exercises the File contract shared by every implementation.
func fileOps(t *testing.T, fs FS, path string) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("WALD"), 6); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "WALDd" {
		t.Fatalf("ReadAt = %q, want %q", buf, "WALDd")
	}
	if sz, err := f.Size(); err != nil || sz != 11 {
		t.Fatalf("Size = %d, %v; want 11", sz, err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	all := make([]byte, 5)
	if _, err := io.ReadFull(f, all); err != nil {
		t.Fatal(err)
	}
	if string(all) != "hello" {
		t.Fatalf("contents = %q, want %q", all, "hello")
	}
	// Sequential read at EOF.
	if n, err := f.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read at EOF = %d, %v; want 0, EOF", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("ReadFile = %q", data)
	}
	// Rename, then the old path must be gone.
	if err := fs.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadFile after rename: err = %v, want not-exist", err)
	}
	if err := fs.Remove(path + ".2"); err != nil {
		t.Fatal(err)
	}
}

func TestOSFileOps(t *testing.T) {
	dir := t.TempDir()
	fileOps(t, OS, filepath.Join(dir, "f"))
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}

func TestMemFileOps(t *testing.T)   { fileOps(t, NewMem(), "dir/f") }
func TestFaultFileOps(t *testing.T) { fileOps(t, NewFault(), "dir/f") }

func TestMemHandleSurvivesRename(t *testing.T) {
	m := NewMem()
	f, err := m.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("one"))
	if err := m.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	// Writes through the old handle land in the renamed file.
	f.Write([]byte("-two"))
	data, err := m.ReadFile("b")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "one-two" {
		t.Fatalf("contents = %q", data)
	}
}

func TestMemSnapshotInstall(t *testing.T) {
	m := NewMem()
	WriteFile(m, "x", []byte("abc"), 0o644)
	snap := m.Snapshot()
	m2 := NewMem()
	m2.Install(snap)
	data, err := m2.ReadFile("x")
	if err != nil || !bytes.Equal(data, []byte("abc")) {
		t.Fatalf("installed copy = %q, %v", data, err)
	}
	// Deep copy: mutating the new filesystem leaves the snapshot alone.
	f, _ := m2.OpenFile("x", os.O_RDWR, 0)
	f.WriteAt([]byte("Z"), 0)
	if !bytes.Equal(snap["x"], []byte("abc")) {
		t.Fatal("snapshot aliased installed data")
	}
}

func TestFaultInjectsErrors(t *testing.T) {
	fs := NewFault()
	f, err := fs.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644) // op 1: create
	if err != nil {
		t.Fatal(err)
	}

	fs.FailNthOp(fs.Ops()+1, FaultEIO)
	if _, err := f.Write([]byte("data")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("write err = %v, want EIO", err)
	}
	// One-shot: the same write succeeds on retry.
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatalf("healed write err = %v", err)
	}

	fs.FailNthOp(fs.Ops()+1, FaultENOSPC)
	if err := f.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sync err = %v, want ENOSPC", err)
	}

	fs.FailNthOp(fs.Ops()+1, FaultShortWrite)
	n, err := f.WriteAt([]byte("0123456789"), 0)
	if n != 5 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("short write = %d, %v; want 5, EIO", n, err)
	}
	if fs.Injected() != 3 {
		t.Fatalf("Injected = %d, want 3", fs.Injected())
	}
	// The short write applied exactly its prefix.
	data, _ := fs.ReadFile("f")
	if !bytes.HasPrefix(data, []byte("01234")) || bytes.Contains(data, []byte("56789")) {
		t.Fatalf("contents after short write = %q", data)
	}
}

func TestFaultCrashStateModes(t *testing.T) {
	fs := NewFault()
	// Classic atomic-replace sequence with a missing temp-file fsync:
	// create tmp, write tmp, rename tmp->idx, fsync other file.
	WriteFile(fs, "other", []byte("o"), 0o644)                 // create+write+sync: ops 1-3
	tmp, _ := fs.OpenFile("tmp", os.O_RDWR|os.O_CREATE, 0o644) // op 4
	tmp.Write([]byte("INDEX"))                                 // op 5 (unsynced)
	tmp.Close()
	fs.Rename("tmp", "idx") // op 6
	other, _ := fs.OpenFile("other", os.O_RDWR, 0o644)
	other.Sync() // op 7: any-sync commits metadata under CrashSynced

	end := fs.Ops()
	if end != 7 {
		t.Fatalf("ops = %d, want 7", end)
	}

	// Buffered: everything applied.
	st := fs.CrashState(end, CrashBuffered)
	if !bytes.Equal(st["idx"], []byte("INDEX")) {
		t.Fatalf("buffered idx = %q", st["idx"])
	}

	// Metadata-durable: rename survives, unsynced data does not -> the
	// zero-length-index bug state.
	st = fs.CrashState(end, CrashMetadata)
	if data, ok := st["idx"]; !ok || len(data) != 0 {
		t.Fatalf("metadata idx = %q, %v; want present and empty", data, ok)
	}
	if _, ok := st["tmp"]; ok {
		t.Fatal("metadata mode kept the temp path after rename")
	}

	// Synced: the trailing fsync commits the rename (ordered journal) but
	// not tmp's data; before the fsync, the rename itself is lost.
	st = fs.CrashState(end, CrashSynced)
	if data, ok := st["idx"]; !ok || len(data) != 0 {
		t.Fatalf("synced idx = %q, %v; want present and empty", data, ok)
	}
	st = fs.CrashState(end-1, CrashSynced) // cut before the fsync
	if _, ok := st["idx"]; ok {
		t.Fatal("rename durable without any subsequent sync")
	}
	// other's synced data is durable in every mode.
	for _, mode := range Modes {
		if st := fs.CrashState(end, mode); !bytes.Equal(st["other"], []byte("o")) {
			t.Fatalf("mode %v lost synced data: %q", mode, st["other"])
		}
	}
}

func TestFaultCrashStateFollowsInodeAcrossRename(t *testing.T) {
	fs := NewFault()
	f, _ := fs.OpenFile("log.tmp", os.O_RDWR|os.O_CREATE, 0o644)
	f.Write([]byte("AAA"))
	f.Sync()
	fs.Rename("log.tmp", "log")
	f.Write([]byte("BBB")) // through the old handle, post-rename
	f.Sync()

	st := fs.CrashState(fs.Ops(), CrashSynced)
	if !bytes.Equal(st["log"], []byte("AAABBB")) {
		t.Fatalf("log = %q, want AAABBB", st["log"])
	}
}
