// Package page implements fixed-size slotted pages, the unit of storage and
// buffering for the heap file.
//
// Layout (little-endian):
//
//	header:  numSlots:uint16 | freeStart:uint16 | freeEnd:uint16
//	records: grow forward from the header
//	slots:   grow backward from the page end; each slot is
//	         offset:uint16 | length:uint16
//
// A deleted slot has offset 0 and length 0; slot indexes are stable, so a
// (page, slot) pair — a RID — permanently identifies a record until deleted.
package page

import (
	"encoding/binary"
	"fmt"
)

// Size is the page size in bytes.
const Size = 8192

const (
	headerSize = 6
	slotSize   = 4
)

// ID identifies a page within the heap file (its index).
type ID uint32

// Page wraps a Size-byte buffer with slotted-record accessors. It does not
// own the buffer.
type Page struct {
	buf []byte
}

// Wrap interprets buf (which must be Size bytes) as a page.
func Wrap(buf []byte) *Page {
	if len(buf) != Size {
		panic(fmt.Sprintf("page: buffer must be %d bytes, got %d", Size, len(buf)))
	}
	return &Page{buf: buf}
}

// Init formats the buffer as an empty page.
func (p *Page) Init() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setFreeStart(headerSize)
	p.setFreeEnd(Size)
}

// Bytes returns the underlying buffer.
func (p *Page) Bytes() []byte { return p.buf }

func (p *Page) numSlots() int      { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *Page) setNumSlots(n int)  { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFreeStart(n int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n)) }
func (p *Page) freeEnd() int       { return int(binary.LittleEndian.Uint16(p.buf[4:6])) }
func (p *Page) setFreeEnd(n int)   { binary.LittleEndian.PutUint16(p.buf[4:6], uint16(n)) }

func (p *Page) slotPos(i int) int { return Size - (i+1)*slotSize }

func (p *Page) slot(i int) (off, ln int) {
	pos := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.buf[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p.buf[pos+2 : pos+4]))
}

func (p *Page) setSlot(i, off, ln int) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.buf[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pos+2:pos+4], uint16(ln))
}

// Note: freeEnd is the start of the slot directory region; records may use
// bytes [freeStart, freeEnd).

// Reclaimable returns the size of the largest record Insert would accept:
// the bytes free once dead space is compacted away, less a new slot directory
// entry unless a deleted slot can be reused. It counts more than the
// contiguous gap [freeStart, freeEnd), which does not grow when a record is
// deleted or shrinks. A page that was never formatted (all zeroes) has no
// room.
func (p *Page) Reclaimable() int {
	free := p.freeEnd() - headerSize
	deadSlot := false
	for i := 0; i < p.numSlots(); i++ {
		off, ln := p.slot(i)
		if off == 0 && ln == 0 {
			deadSlot = true
		}
		free -= ln
	}
	if !deadSlot {
		free -= slotSize
	}
	if free < 0 {
		return 0
	}
	return free
}

// NumSlots returns the size of the slot directory (including deleted slots).
func (p *Page) NumSlots() int { return p.numSlots() }

// MaxRecord is the largest record insertable into an empty page.
const MaxRecord = Size - headerSize - slotSize

// Insert stores a record and returns its slot index. It reuses a deleted
// slot when one exists. It returns false when the page lacks space
// (compaction is attempted first).
func (p *Page) Insert(rec []byte) (slot int, ok bool) {
	if len(rec) > MaxRecord {
		return 0, false
	}
	// Find a reusable slot.
	reuse := -1
	for i := 0; i < p.numSlots(); i++ {
		if off, ln := p.slot(i); off == 0 && ln == 0 {
			reuse = i
			break
		}
	}
	need := len(rec)
	if reuse < 0 {
		need += slotSize
	}
	if p.freeEnd()-p.freeStart() < need {
		p.Compact()
		if p.freeEnd()-p.freeStart() < need {
			return 0, false
		}
	}
	off := p.freeStart()
	copy(p.buf[off:], rec)
	p.setFreeStart(off + len(rec))
	if reuse >= 0 {
		p.setSlot(reuse, off, len(rec))
		return reuse, true
	}
	i := p.numSlots()
	p.setNumSlots(i + 1)
	p.setFreeEnd(p.freeEnd() - slotSize)
	p.setSlot(i, off, len(rec))
	return i, true
}

// Read returns the record stored in the slot. ok is false for out-of-range
// or deleted slots. The returned slice aliases the page buffer.
func (p *Page) Read(slot int) (rec []byte, ok bool) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, false
	}
	off, ln := p.slot(slot)
	if off == 0 && ln == 0 {
		return nil, false
	}
	return p.buf[off : off+ln], true
}

// Update replaces the record in the slot. It first tries in place, then
// appends a fresh copy (compacting if needed). It returns false when the
// new record cannot fit on this page; the caller must relocate it.
func (p *Page) Update(slot int, rec []byte) bool {
	if slot < 0 || slot >= p.numSlots() {
		return false
	}
	off, ln := p.slot(slot)
	if off == 0 && ln == 0 {
		return false
	}
	if len(rec) <= ln {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return true
	}
	// Relocate: free the old space first (keeping a copy — compaction moves
	// records, so the old offsets become meaningless), compact if needed,
	// and restore the original record if the new one still cannot fit.
	old := append([]byte(nil), p.buf[off:off+ln]...)
	p.setSlot(slot, 0, 0)
	if p.freeEnd()-p.freeStart() < len(rec) {
		p.Compact()
	}
	if p.freeEnd()-p.freeStart() >= len(rec) {
		no := p.freeStart()
		copy(p.buf[no:], rec)
		p.setFreeStart(no + len(rec))
		p.setSlot(slot, no, len(rec))
		return true
	}
	// Put the old record back; its bytes were just freed, so after the
	// compaction above there is always room for it.
	no := p.freeStart()
	copy(p.buf[no:], old)
	p.setFreeStart(no + len(old))
	p.setSlot(slot, no, len(old))
	return false
}

// Delete removes the record in the slot (tombstoning the slot for reuse).
func (p *Page) Delete(slot int) bool {
	if slot < 0 || slot >= p.numSlots() {
		return false
	}
	if off, ln := p.slot(slot); off == 0 && ln == 0 {
		return false
	}
	p.setSlot(slot, 0, 0)
	return true
}

// Compact rewrites live records contiguously to defragment free space. Slot
// indexes are preserved.
func (p *Page) Compact() {
	type live struct{ slot, off, ln int }
	var recs []live
	for i := 0; i < p.numSlots(); i++ {
		if off, ln := p.slot(i); !(off == 0 && ln == 0) {
			recs = append(recs, live{i, off, ln})
		}
	}
	// Copy live data out, then back in packed order.
	scratch := make([]byte, 0, Size)
	offsets := make([]int, len(recs))
	pos := headerSize
	for i, r := range recs {
		scratch = append(scratch, p.buf[r.off:r.off+r.ln]...)
		offsets[i] = pos
		pos += r.ln
	}
	copy(p.buf[headerSize:], scratch)
	for i, r := range recs {
		p.setSlot(r.slot, offsets[i], r.ln)
	}
	p.setFreeStart(pos)
}

// LiveRecords calls fn for every live (slot, record) pair.
func (p *Page) LiveRecords(fn func(slot int, rec []byte)) {
	for i := 0; i < p.numSlots(); i++ {
		if off, ln := p.slot(i); !(off == 0 && ln == 0) {
			fn(i, p.buf[off:off+ln])
		}
	}
}
