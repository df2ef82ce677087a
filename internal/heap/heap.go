// Package heap implements the heap file: persistent storage of object
// images in slotted pages, addressed by OID through a persistent object
// table.
//
// Every record is stored as uvarint(oid) + image, so the object table can
// always be rebuilt by scanning the pages; the table is also checkpointed
// into a side file (atomically, via rename) to make reopening fast. An
// opaque metadata blob (the OID high-water mark, the logical clock, catalog
// roots) rides along in the checkpoint for the layers above.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"

	"sentinel/internal/buffer"
	"sentinel/internal/oid"
	"sentinel/internal/page"
	"sentinel/internal/vfs"
)

// RID is a record identifier: page + slot.
type RID struct {
	Page page.ID
	Slot int
}

// Store is the heap file plus its object table.
type Store struct {
	mu    sync.Mutex
	fs    vfs.FS
	pf    *buffer.File
	pool  *buffer.Pool
	table map[oid.OID]RID
	free  freeMap // largest record each page would accept
	muts  uint64  // Puts and Deletes so far; lets Scan tell it ran undisturbed
	meta  []byte
	dir   string
}

const (
	dataFile   = "objects.dat"
	indexFile  = "objects.idx"
	indexTmp   = "objects.idx.tmp"
	indexMagic = 0x53454E54 // "SENT"
)

// Options configures Open.
type Options struct {
	// PoolPages is the buffer pool capacity in pages (default 256).
	PoolPages int
	// VFS is the filesystem the store runs on (default: the OS).
	VFS vfs.FS
}

// Open opens (or creates) a heap store in dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.VFS == nil {
		opts.VFS = vfs.OS
	}
	if err := opts.VFS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("heap: mkdir: %w", err)
	}
	pf, err := buffer.OpenFileOn(opts.VFS, filepath.Join(dir, dataFile))
	if err != nil {
		return nil, err
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 256
	}
	s := &Store{
		fs:    opts.VFS,
		pf:    pf,
		pool:  buffer.NewPool(pf, opts.PoolPages),
		table: make(map[oid.OID]RID),
		dir:   dir,
	}
	if err := s.loadIndex(); err != nil {
		pf.Close()
		return nil, err
	}
	return s, nil
}

// Close flushes and closes the store (without checkpointing the index; call
// Checkpoint first for a fast reopen).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	return s.pf.Close()
}

// Meta returns the opaque metadata blob from the last checkpoint.
func (s *Store) Meta() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.meta...)
}

// Len returns the number of live objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}

// Has reports whether the OID is present.
func (s *Store) Has(id oid.OID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.table[id]
	return ok
}

// Get returns the stored image for id (a copy), or ok=false.
func (s *Store) Get(id oid.OID) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rid, ok := s.table[id]
	if !ok {
		return nil, false, nil
	}
	pg, err := s.pool.Pin(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer s.pool.Unpin(rid.Page, false)
	rec, ok := pg.Read(rid.Slot)
	if !ok {
		return nil, false, fmt.Errorf("heap: object table points at dead slot %v for %s", rid, id)
	}
	_, img, err := splitRecord(rec)
	if err != nil {
		return nil, false, err
	}
	return append([]byte(nil), img...), true, nil
}

// Put inserts or replaces the image for id.
func (s *Store) Put(id oid.OID, img []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.muts++
	rec := encodeRecord(id, img)
	if len(rec) > page.MaxRecord {
		return fmt.Errorf("heap: object %s image of %d bytes exceeds page capacity", id, len(img))
	}
	if rid, ok := s.table[id]; ok {
		pg, err := s.pool.Pin(rid.Page)
		if err != nil {
			return err
		}
		fits := pg.Update(rid.Slot, rec)
		if !fits {
			// Doesn't fit here any more: delete and relocate.
			pg.Delete(rid.Slot)
		}
		s.free.set(rid.Page, pg.Reclaimable())
		s.pool.Unpin(rid.Page, true)
		if fits {
			return nil
		}
		delete(s.table, id)
	}
	return s.insertLocked(id, rec)
}

// insertLocked places rec on the lowest-numbered page with room for it, or
// on a fresh page when none has.
func (s *Store) insertLocked(id oid.OID, rec []byte) error {
	pid, found := s.free.first(0, len(rec))
	for found {
		ok, err := s.insertOn(pid, id, rec)
		if ok || err != nil {
			return err
		}
		pid, found = s.free.first(pid+1, len(rec))
	}
	pid, err := s.pool.Alloc()
	if err != nil {
		return err
	}
	ok, err := s.insertOn(pid, id, rec)
	if err == nil && !ok {
		err = fmt.Errorf("heap: record of %d bytes does not fit a fresh page", len(rec))
	}
	return err
}

// insertOn tries to store rec on page pid and refreshes the page's hint.
func (s *Store) insertOn(pid page.ID, id oid.OID, rec []byte) (bool, error) {
	pg, err := s.pool.Pin(pid)
	if err != nil {
		return false, err
	}
	slot, ok := pg.Insert(rec)
	s.free.set(pid, pg.Reclaimable())
	s.pool.Unpin(pid, ok)
	if ok {
		s.table[id] = RID{Page: pid, Slot: slot}
	}
	return ok, nil
}

// Delete removes the object; deleting an absent OID is a no-op.
func (s *Store) Delete(id oid.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rid, ok := s.table[id]
	if !ok {
		return nil
	}
	s.muts++
	pg, err := s.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	pg.Delete(rid.Slot)
	s.free.set(rid.Page, pg.Reclaimable())
	s.pool.Unpin(rid.Page, true)
	delete(s.table, id)
	return nil
}

// Scan calls fn for every live object, page by page in page order: one pin
// per page, however many records it holds. fn receives a view into a private
// copy of the page, valid only for the duration of the call; it must not
// retain or mutate it. The store is locked while a page is copied, never
// across fn, so fn may call back into the store; objects put or deleted
// while the scan runs may or may not be reported. Scan is for bulk read
// passes (catalog and index rebuilds, dumps, integrity sweeps).
func (s *Store) Scan(fn func(id oid.OID, img []byte) error) error {
	type record struct {
		id  oid.OID
		img []byte // into view
	}
	view := page.Wrap(make([]byte, page.Size))
	var recs []record
	var muts uint64
	reported := 0
	for pid := page.ID(0); ; pid++ {
		s.mu.Lock()
		if pid == 0 {
			muts = s.muts
		}
		if pid >= s.pf.NumPages() {
			// Undisturbed, the scan must have met every table entry.
			missing := len(s.table) - reported
			undisturbed := s.muts == muts
			s.mu.Unlock()
			if undisturbed && missing != 0 {
				return fmt.Errorf("heap: object table lists %d objects its pages do not hold", missing)
			}
			return nil
		}
		pg, err := s.pool.Pin(pid)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		copy(view.Bytes(), pg.Bytes())
		s.pool.Unpin(pid, false)
		// A record the table does not point at is a stale copy left by a
		// crash between a relocation's two page writes; skip it.
		recs = recs[:0]
		view.LiveRecords(func(slot int, rec []byte) {
			if id, img, err := splitRecord(rec); err == nil && s.table[id] == (RID{Page: pid, Slot: slot}) {
				recs = append(recs, record{id, img})
			}
		})
		s.mu.Unlock()
		reported += len(recs)
		for _, r := range recs {
			if err := fn(r.id, r.img); err != nil {
				return err
			}
		}
	}
}

// Checkpoint flushes all dirty pages, syncs the data file, and atomically
// writes the object table and the metadata blob to the index file.
func (s *Store) Checkpoint(meta []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	s.meta = append([]byte(nil), meta...)
	return s.writeIndexLocked()
}

func encodeRecord(id oid.OID, img []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(img))
	buf = binary.AppendUvarint(buf, uint64(id))
	return append(buf, img...)
}

func splitRecord(rec []byte) (oid.OID, []byte, error) {
	id, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0, nil, fmt.Errorf("heap: malformed record header")
	}
	return oid.OID(id), rec[n:], nil
}

// ---- index persistence ----

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *Store) writeIndexLocked() error {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, indexMagic)
	buf = binary.AppendUvarint(buf, uint64(len(s.meta)))
	buf = append(buf, s.meta...)
	buf = binary.AppendUvarint(buf, uint64(len(s.table)))
	ids := make([]oid.OID, 0, len(s.table))
	for id := range s.table {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		rid := s.table[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(rid.Page))
		buf = binary.AppendUvarint(buf, uint64(rid.Slot))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	// Atomic replace with full durability: write the temp file, fsync it
	// BEFORE the rename (otherwise a power cut can journal the rename
	// while the data pages are still in the page cache, leaving an
	// empty/partial index behind the new name), then fsync the directory
	// so the rename itself survives.
	tmp := filepath.Join(s.dir, indexTmp)
	if err := vfs.WriteFile(s.fs, tmp, buf, 0o644); err != nil {
		return fmt.Errorf("heap: write index: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, indexFile)); err != nil {
		return fmt.Errorf("heap: rename index: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("heap: sync index dir: %w", err)
	}
	return nil
}

func (s *Store) loadIndex() error {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, indexFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return s.rebuildIndex()
		}
		return fmt.Errorf("heap: read index: %w", err)
	}
	if len(data) < 8 ||
		binary.LittleEndian.Uint32(data[:4]) != indexMagic ||
		binary.LittleEndian.Uint32(data[len(data)-4:]) != crc32.Checksum(data[:len(data)-4], castagnoli) {
		// Corrupt index: fall back to a page scan.
		return s.rebuildIndex()
	}
	buf := data[4 : len(data)-4]
	ml, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < ml {
		return s.rebuildIndex()
	}
	s.meta = append([]byte(nil), buf[n:n+int(ml)]...)
	buf = buf[n+int(ml):]
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return s.rebuildIndex()
	}
	buf = buf[n:]
	for i := uint64(0); i < cnt; i++ {
		id, n1 := binary.Uvarint(buf)
		if n1 <= 0 {
			return s.rebuildIndex()
		}
		pid, n2 := binary.Uvarint(buf[n1:])
		if n2 <= 0 {
			return s.rebuildIndex()
		}
		slot, n3 := binary.Uvarint(buf[n1+n2:])
		if n3 <= 0 {
			return s.rebuildIndex()
		}
		s.table[oid.OID(id)] = RID{Page: page.ID(pid), Slot: int(slot)}
		buf = buf[n1+n2+n3:]
	}
	return s.scanFreeSpace()
}

// rebuildIndex reconstructs the object table by scanning every page.
func (s *Store) rebuildIndex() error {
	s.table = make(map[oid.OID]RID)
	s.free = freeMap{}
	for pid := page.ID(0); pid < s.pf.NumPages(); pid++ {
		pg, err := s.pool.Pin(pid)
		if err != nil {
			return err
		}
		pg.LiveRecords(func(slot int, rec []byte) {
			if id, _, err := splitRecord(rec); err == nil {
				s.table[id] = RID{Page: pid, Slot: slot}
			}
		})
		s.free.set(pid, pg.Reclaimable())
		s.pool.Unpin(pid, false)
	}
	return nil
}

func (s *Store) scanFreeSpace() error {
	s.free = freeMap{}
	for pid := page.ID(0); pid < s.pf.NumPages(); pid++ {
		pg, err := s.pool.Pin(pid)
		if err != nil {
			return err
		}
		s.free.set(pid, pg.Reclaimable())
		s.pool.Unpin(pid, false)
	}
	return nil
}

// CloseAbrupt closes the backing file WITHOUT flushing dirty pages or
// writing the index — simulating a crash for recovery tests. The on-disk
// state is whatever the last checkpoint plus incidental evictions left.
func (s *Store) CloseAbrupt() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pf.Close()
}

// Rescan discards the loaded object table and rebuilds it by scanning every
// page. Used when the side index cannot be trusted (crash recovery: the WAL
// holds records newer than the last checkpointed index).
func (s *Store) Rescan() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuildIndex()
}
