// Package heap implements the heap file: persistent storage of object
// images in slotted pages, addressed by OID through a persistent object
// table that also records each object's class.
//
// Every record is stored as uvarint(oid) + image, so the object table can
// always be rebuilt by scanning the pages (reading each image's class with
// Options.ClassOf); the table is also checkpointed into a side file
// (atomically, via rename) to make reopening fast. An opaque metadata blob
// (the OID high-water mark, the logical clock, catalog roots) rides along in
// the checkpoint for the layers above.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"sync"

	"sentinel/internal/buffer"
	"sentinel/internal/oid"
	"sentinel/internal/page"
	"sentinel/internal/vfs"
)

// entry is one object-table row: where the record lives and its class.
type entry struct {
	page page.ID
	slot uint16 // a page.Size page holds far fewer than 1<<16 slots
	cls  uint32 // index into Store.classes
}

// class is one interned class name and the number of live objects of it.
// Ids are never reused while the store is open; a page-scan rebuild starts
// the table afresh.
type class struct {
	name string
	live int
}

// Store is the heap file plus its object table.
type Store struct {
	mu      sync.Mutex
	fs      vfs.FS
	pf      *buffer.File
	pool    *buffer.Pool
	table   map[oid.OID]entry
	classes []class
	classID map[string]uint32
	classOf func(img []byte) (string, error)
	free    freeMap // largest record each page would accept
	muts    uint64  // Puts and Deletes so far; lets Scan tell it ran undisturbed
	meta    []byte
	dir     string
}

const (
	dataFile     = "objects.dat"
	indexFile    = "objects.idx"
	indexTmp     = "objects.idx.tmp"
	indexMagicV1 = 0x53454E54 // "SENT": meta + table without classes
	indexMagic   = 0x53454E32 // v2: meta + class names + table with classes
)

// Options configures Open.
type Options struct {
	// PoolPages is the buffer pool capacity in pages (default 256).
	PoolPages int
	// VFS is the filesystem the store runs on (default: the OS).
	VFS vfs.FS
	// ClassOf reads the class name from an object image. Put and the
	// table rebuild by page scan use it; without it every class is "".
	ClassOf func(img []byte) (string, error)
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
	if opts.ClassOf == nil {
		opts.ClassOf = func([]byte) (string, error) { return "", nil }
	}
	s := &Store{
		fs:      opts.VFS,
		pf:      pf,
		pool:    buffer.NewPool(pf, opts.PoolPages),
		classOf: opts.ClassOf,
		dir:     dir,
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

// Get returns the stored image for id (a copy), or ok=false.
func (s *Store) Get(id oid.OID) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table[id]
	if !ok {
		return nil, false, nil
	}
	pg, err := s.pool.Pin(e.page)
	if err != nil {
		return nil, false, err
	}
	defer s.pool.Unpin(e.page, false)
	rec, ok := pg.Read(int(e.slot))
	if !ok {
		return nil, false, fmt.Errorf("heap: object table points at dead slot %d:%d for %s", e.page, e.slot, id)
	}
	_, img, err := splitRecord(rec)
	if err != nil {
		return nil, false, err
	}
	return append([]byte(nil), img...), true, nil
}

// Put inserts or replaces the image for id, reading its class with
// Options.ClassOf.
func (s *Store) Put(id oid.OID, img []byte) error {
	cls, err := s.classOf(img)
	if err != nil {
		return fmt.Errorf("heap: object %s: %w", id, err)
	}
	return s.PutClass(id, cls, img)
}

// PutClass inserts or replaces the image for id, an object of class cls.
func (s *Store) PutClass(id oid.OID, cls string, img []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.muts++
	rec := encodeRecord(id, img)
	if len(rec) > page.MaxRecord {
		return fmt.Errorf("heap: object %s image of %d bytes exceeds page capacity", id, len(img))
	}
	c := s.intern(cls)
	if e, ok := s.table[id]; ok {
		pg, err := s.pool.Pin(e.page)
		if err != nil {
			return err
		}
		fits := pg.Update(int(e.slot), rec)
		if !fits {
			// Doesn't fit here any more: delete and relocate.
			pg.Delete(int(e.slot))
		}
		s.free.set(e.page, pg.Reclaimable())
		s.pool.Unpin(e.page, true)
		if fits {
			e.cls = c
			s.set(id, e)
			return nil
		}
		s.unset(id)
	}
	return s.insertLocked(id, c, rec)
}

// insertLocked places rec on the lowest-numbered page with room for it, or
// on a fresh page when none has.
func (s *Store) insertLocked(id oid.OID, c uint32, rec []byte) error {
	pid, found := s.free.first(0, len(rec))
	for found {
		ok, err := s.insertOn(pid, id, c, rec)
		if ok || err != nil {
			return err
		}
		pid, found = s.free.first(pid+1, len(rec))
	}
	pid, err := s.pool.Alloc()
	if err != nil {
		return err
	}
	ok, err := s.insertOn(pid, id, c, rec)
	if err == nil && !ok {
		err = fmt.Errorf("heap: record of %d bytes does not fit a fresh page", len(rec))
	}
	return err
}

// insertOn tries to store rec on page pid and refreshes the page's hint.
func (s *Store) insertOn(pid page.ID, id oid.OID, c uint32, rec []byte) (bool, error) {
	pg, err := s.pool.Pin(pid)
	if err != nil {
		return false, err
	}
	slot, ok := pg.Insert(rec)
	s.free.set(pid, pg.Reclaimable())
	s.pool.Unpin(pid, ok)
	if ok {
		s.set(id, entry{page: pid, slot: uint16(slot), cls: c})
	}
	return ok, nil
}

// Delete removes the object; deleting an absent OID is a no-op.
func (s *Store) Delete(id oid.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table[id]
	if !ok {
		return nil
	}
	s.muts++
	pg, err := s.pool.Pin(e.page)
	if err != nil {
		return err
	}
	pg.Delete(int(e.slot))
	s.free.set(e.page, pg.Reclaimable())
	s.pool.Unpin(e.page, true)
	s.unset(id)
	return nil
}

// intern returns the id of class name, adding it when new.
func (s *Store) intern(name string) uint32 {
	if c, ok := s.classID[name]; ok {
		return c
	}
	c := uint32(len(s.classes))
	s.classes = append(s.classes, class{name: name})
	s.classID[name] = c
	return c
}

// set points id's table row at e, keeping the per-class live counts.
func (s *Store) set(id oid.OID, e entry) {
	if old, ok := s.table[id]; ok {
		s.classes[old.cls].live--
	}
	s.classes[e.cls].live++
	s.table[id] = e
}

// unset drops id's table row, keeping the per-class live counts.
func (s *Store) unset(id oid.OID) {
	if old, ok := s.table[id]; ok {
		s.classes[old.cls].live--
		delete(s.table, id)
	}
}

// Object is one live object of the object table.
type Object struct {
	ID    oid.OID
	Class string
}

// Objects returns every live object with its class, in no particular order.
func (s *Store) Objects() []Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Object, 0, len(s.table))
	for id, e := range s.table {
		out = append(out, Object{id, s.classes[e.cls].name})
	}
	return out
}

// Classes returns the names of the classes live objects belong to, sorted.
func (s *Store) Classes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveClassesLocked()
}

func (s *Store) liveClassesLocked() []string {
	var out []string
	for _, c := range s.classes {
		if c.live > 0 {
			out = append(out, c.name)
		}
	}
	slices.Sort(out)
	return out
}

// Scan calls fn for every live object, page by page in page order: one pin
// per page, however many records it holds. fn receives a view into a private
// copy of the page, valid only for the duration of the call; it must not
// retain or mutate it. The store is locked while a page is copied, never
// across fn, so fn may call back into the store; objects put or deleted
// while the scan runs may or may not be reported. Scan is for bulk read
// passes (index rebuilds, dumps, integrity sweeps, base-state captures).
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
			id, img, err := splitRecord(rec)
			if e, ok := s.table[id]; err == nil && ok && e.page == pid && int(e.slot) == slot {
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
//
// objects.idx (v2), every integer a uvarint unless noted:
//
//	u32 LE  magic 0x53454E32
//	        len(meta), meta
//	        nClasses, then per class: len(name), name   — sorted, live classes only
//	        nEntries, then per entry: oid, page, slot, class index — ascending oid
//	u32 LE  CRC-32C of everything before it
//
// A v1 file (magic 0x53454E54) has the same frame and meta but entries of
// oid, page, slot and no class names; its meta is kept and its table is
// rebuilt by page scan. A missing, corrupt or malformed file is rebuilt by
// page scan too, with no meta.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *Store) writeIndexLocked() error {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, indexMagic)
	buf = binary.AppendUvarint(buf, uint64(len(s.meta)))
	buf = append(buf, s.meta...)
	names := s.liveClassesLocked()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	pos := make([]uint64, len(s.classes))
	for i, name := range names {
		pos[s.classID[name]] = uint64(i)
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
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
		buf = binary.AppendUvarint(buf, pos[e.cls])
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
		binary.LittleEndian.Uint32(data[len(data)-4:]) != crc32.Checksum(data[:len(data)-4], castagnoli) {
		// Corrupt index: fall back to a page scan.
		return s.rebuildIndex()
	}
	r := reader{buf: data[4 : len(data)-4]}
	meta := r.bytes()
	switch binary.LittleEndian.Uint32(data[:4]) {
	case indexMagicV1:
		if !r.bad {
			s.meta = append([]byte(nil), meta...)
		}
		return s.rebuildIndex()
	case indexMagic:
		if !s.decodeTable(&r) {
			return s.rebuildIndex()
		}
		s.meta = append([]byte(nil), meta...)
		return s.scanFreeSpace()
	}
	return s.rebuildIndex()
}

// decodeTable installs the class names and object table of a v2 index,
// reporting false (and installing nothing) when they are malformed.
func (s *Store) decodeTable(r *reader) bool {
	classes := make([]class, r.count(1))
	classID := make(map[string]uint32, len(classes))
	for i := range classes {
		name := string(r.bytes())
		if i > 0 && name <= classes[i-1].name {
			return false // names are written sorted and unique
		}
		classes[i].name = name
		classID[name] = uint32(i)
	}
	n := r.count(4)
	table := make(map[oid.OID]entry, n)
	var last uint64
	for i := 0; i < n; i++ {
		id, pid, slot, c := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
		if r.bad || (i > 0 && id <= last) || pid > math.MaxUint32 || slot > math.MaxUint16 || c >= uint64(len(classes)) {
			return false
		}
		last = id
		classes[c].live++
		table[oid.OID(id)] = entry{page: page.ID(pid), slot: uint16(slot), cls: uint32(c)}
	}
	if r.bad || len(r.buf) != 0 {
		return false
	}
	s.table, s.classes, s.classID = table, classes, classID
	return true
}

// rebuildIndex reconstructs the object table by scanning every page.
func (s *Store) rebuildIndex() error {
	s.table = make(map[oid.OID]entry)
	s.classes, s.classID = nil, make(map[string]uint32)
	s.free = freeMap{}
	for pid := page.ID(0); pid < s.pf.NumPages(); pid++ {
		pg, err := s.pool.Pin(pid)
		if err != nil {
			return err
		}
		var bad error
		pg.LiveRecords(func(slot int, rec []byte) {
			id, img, err := splitRecord(rec)
			if err != nil || bad != nil {
				return
			}
			cls, err := s.classOf(img)
			if err != nil {
				bad = fmt.Errorf("heap: object %s: %w", id, err)
				return
			}
			s.set(id, entry{page: pid, slot: uint16(slot), cls: s.intern(cls)})
		})
		s.free.set(pid, pg.Reclaimable())
		s.pool.Unpin(pid, false)
		if bad != nil {
			return bad
		}
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

// reader decodes an index file. The first malformed or out-of-bounds field
// marks it bad, and every read after that returns zero.
type reader struct {
	buf []byte
	bad bool
}

func (r *reader) fail() {
	r.bad, r.buf = true, nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) bytes() []byte {
	l := r.uvarint()
	if l > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	b := r.buf[:l]
	r.buf = r.buf[l:]
	return b
}

// count reads an element count, bounded by the bytes left: each element
// takes at least min of them.
func (r *reader) count(min int) int {
	c := r.uvarint()
	if c > uint64(len(r.buf)/min) {
		r.fail()
		return 0
	}
	return int(c)
}
