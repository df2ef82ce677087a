// Package wal implements the write-ahead log that gives the object store
// durability and atomic commit.
//
// The design is redo-only logical logging keyed by OID:
//
//   - While a transaction runs, its writes stay in memory (no-steal): the
//     heap file never contains uncommitted data.
//   - At commit, one Update/Delete record per touched object is appended,
//     followed by a Commit record, then the log is synced. The heap is
//     updated after logging (no-force for pages; force for the log).
//   - A Checkpoint record means "every committed effect up to this point is
//     in the heap file"; recovery replays only committed transactions that
//     appear after the last checkpoint.
//
// Records are CRC-framed; a torn tail (partial final record, bad CRC) is
// treated as the end of the log, which is the standard contract for
// crash-interrupted appends.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/oid"
	"sentinel/internal/vfs"
)

// RecordType tags a log record.
type RecordType uint8

// The record types.
const (
	RecUpdate     RecordType = iota + 1 // object write: OID + image
	RecDelete                           // object delete: OID
	RecCommit                           // transaction commit marker
	RecAbort                            // transaction abort marker (informational)
	RecCheckpoint                       // all prior committed effects are in the heap
	RecMark                             // a replica's durable mark: Tx is the primary's durable replication LSN
)

// Record is one log entry.
type Record struct {
	Type RecordType
	Tx   uint64
	OID  oid.OID
	Data []byte // object image for RecUpdate; nil otherwise
}

// frame: len:uint32 | crc:uint32 | payload
// payload: type:uint8 | tx:uvarint | oid:uvarint | dataLen:uvarint | data

const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only write-ahead log backed by a file. All methods are
// safe for concurrent use: commits from different transactions serialize on
// the log so record frames never interleave.
type Log struct {
	mu   sync.Mutex
	fs   vfs.FS
	f    vfs.File
	path string
	// size is written under mu and read without it, so Size never waits
	// behind an fsync in progress.
	size atomic.Int64

	// buf is the reusable frame-encoding buffer for AppendBatch. Guarded
	// by mu (appends serialize on it), so steady-state commits frame their
	// records without allocating per record.
	buf []byte

	// group is the commit coalescer (see Enqueue and Await).
	group groupState

	// Instrumentation hooks (see SetHooks / SetGroupHook) and the flush hook
	// (SetFlushHook); nil means none.
	onAppend func(bytes int, d time.Duration)
	onFsync  func(d time.Duration)
	onGroup  func(commits int)
	onFlush  func(payloads []any)
}

// Open opens (or creates) the log at path on the OS filesystem.
func Open(path string) (*Log, error) {
	return OpenOn(vfs.OS, path)
}

// OpenOn opens (or creates) the log at path on fs.
func OpenOn(fs vfs.FS, path string) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat: %w", err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l := &Log{fs: fs, f: f, path: path}
	l.size.Store(size)
	l.group.cond.L = &l.group.mu
	return l, nil
}

// SetHooks installs instrumentation callbacks: onAppend observes every
// record (batch) append with its framed byte count and write latency,
// onFsync every physical fsync with its latency. Either may be nil. Call
// before the log sees concurrent use (the fields are unsynchronized by
// design — the owner installs them right after Open). Hooks run with log
// locks held and must not call back into the Log.
func (l *Log) SetHooks(onAppend func(bytes int, d time.Duration), onFsync func(d time.Duration)) {
	l.onAppend = onAppend
	l.onFsync = onFsync
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Size returns the current log size in bytes. It takes no lock: a group's
// fsync holds mu, and a caller asking whether the log outgrew a threshold
// must not wait it out.
func (l *Log) Size() int64 {
	return l.size.Load()
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

// Append writes one record at the end of the log (buffered by the OS; call
// Sync to force durability).
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r Record) error {
	var start time.Time
	if l.onAppend != nil {
		start = time.Now()
	}
	payload := appendPayload(nil, r)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size.Add(int64(frameHeader + len(payload)))
	if l.onAppend != nil {
		l.onAppend(frameHeader+len(payload), time.Since(start))
	}
	return nil
}

// maxBatchBufRetain bounds the frame buffer kept between batches, so one
// oversized commit does not pin its peak footprint forever.
const maxBatchBufRetain = 1 << 20

// AppendBatch writes several records with a single buffered write. Frames
// are encoded into a buffer reused across batches (payloads are encoded in
// place and the length/CRC header back-filled), so framing allocates
// nothing once the buffer is warm.
func (l *Log) AppendBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeFramesLocked(func(buf []byte) []byte { return frameRecords(buf, recs) })
}

// frameRecords encodes recs as CRC-framed log entries at the end of buf.
func frameRecords(buf []byte, recs []Record) []byte {
	for _, r := range recs {
		hdrOff := len(buf)
		buf = append(buf, make([]byte, frameHeader)...)
		payloadOff := len(buf)
		buf = appendPayload(buf, r)
		payload := buf[payloadOff:]
		binary.LittleEndian.PutUint32(buf[hdrOff:hdrOff+4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[hdrOff+4:hdrOff+8], crc32.Checksum(payload, castagnoli))
	}
	return buf
}

// writeFramesLocked frames records through fill into the reusable buffer and
// writes them with a single buffered write. Caller holds l.mu.
func (l *Log) writeFramesLocked(fill func(buf []byte) []byte) error {
	var start time.Time
	if l.onAppend != nil {
		start = time.Now()
	}
	buf := fill(l.buf[:0])
	if cap(buf) <= maxBatchBufRetain {
		l.buf = buf[:0]
	} else {
		l.buf = nil
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append batch: %w", err)
	}
	l.size.Add(int64(len(buf)))
	if l.onAppend != nil {
		l.onAppend(len(buf), time.Since(start))
	}
	return nil
}

// Sync forces the log to stable storage.
func (l *Log) Sync() error {
	return l.fsync()
}

// Truncate atomically replaces the log with one containing a checkpoint
// record followed by keep: what the heap does not hold yet but must survive
// (a replica's logged batches still waiting for the primary's durable mark).
// Called after the heap has been flushed and synced.
func (l *Log) Truncate(keep ...Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := l.path + ".tmp"
	nf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	nl := &Log{fs: l.fs, f: nf, path: tmp}
	if err := nl.appendLocked(Record{Type: RecCheckpoint}); err != nil {
		nf.Close()
		return err
	}
	if len(keep) > 0 {
		if err := nl.writeFramesLocked(func(buf []byte) []byte { return frameRecords(buf, keep) }); err != nil {
			nf.Close()
			return err
		}
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		nf.Close()
		return fmt.Errorf("wal: truncate close: %w", err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		nf.Close()
		return fmt.Errorf("wal: truncate rename: %w", err)
	}
	// Sync the directory so the rename itself is durable: committed
	// records appended after this point go to the new file, and must not
	// be orphaned under a still-visible old log.
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("wal: truncate syncdir: %w", err)
	}
	l.f = nf
	l.size.Store(nl.size.Load())
	return nil
}

// Replay scans the whole log and invokes fn for every record, in order. A
// torn or corrupt tail ends the scan without error. Replay leaves the write
// offset at the end of the valid prefix so subsequent Appends overwrite any
// torn tail.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: replay seek: %w", err)
	}
	var off int64
	hdr := make([]byte, frameHeader)
	for {
		if _, err := io.ReadFull(l.f, hdr); err != nil {
			break // clean EOF or torn header: end of valid prefix
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		// A corrupt length field must not drive the allocation below: a
		// frame can never be longer than the bytes actually in the file,
		// so anything claiming more is damage (found by FuzzReplay, which
		// crawled when bogus ~1 GiB lengths were allocated before the
		// short read rejected them).
		if ln > 1<<30 || int64(ln) > l.size.Load()-off-frameHeader {
			break
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(l.f, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			break
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += int64(frameHeader) + int64(ln)
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("wal: replay reset: %w", err)
	}
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: drop torn tail: %w", err)
	}
	l.size.Store(off)
	return nil
}

func appendPayload(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, r.Tx)
	buf = binary.AppendUvarint(buf, uint64(r.OID))
	buf = binary.AppendUvarint(buf, uint64(len(r.Data)))
	buf = append(buf, r.Data...)
	return buf
}

func decodePayload(buf []byte) (Record, error) {
	if len(buf) < 1 {
		return Record{}, fmt.Errorf("wal: empty payload")
	}
	r := Record{Type: RecordType(buf[0])}
	buf = buf[1:]
	tx, n := binary.Uvarint(buf)
	if n <= 0 {
		return Record{}, fmt.Errorf("wal: bad tx field")
	}
	buf = buf[n:]
	o, n := binary.Uvarint(buf)
	if n <= 0 {
		return Record{}, fmt.Errorf("wal: bad oid field")
	}
	buf = buf[n:]
	dl, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < dl {
		return Record{}, fmt.Errorf("wal: bad data field")
	}
	r.Tx = tx
	r.OID = oid.OID(o)
	if dl > 0 {
		r.Data = append([]byte(nil), buf[n:n+int(dl)]...)
	}
	return r, nil
}

// ---- group commit ----
//
// Enqueue and Await are the transactional append path. A committer enqueues
// its record batch and gets a Ticket, its place in the log; Await(ticket)
// returns once that batch and every batch enqueued before it are flushed.
// What the committer does between the two — install its versions, release
// its locks — overlaps the flush of the groups ahead of it (early lock
// release: whoever reads its images enqueues after it, so can never become
// durable first).
//
// Queued batches are coalesced into ONE buffered write and (when any of
// them asks for durability) ONE fsync, leader/follower with handoff:
//
//   1. An awaiter whose ticket is not flushed yet and finds no flush in
//      progress becomes the leader at once — an idle log commits at
//      single-commit latency, there is no timer on this path.
//   2. The leader claims the whole queue, releases the queue lock, flushes
//      the group (one write, at most one fsync), hands the group's payloads
//      to the flush hook, then marks every claimed ticket done and
//      broadcasts.
//   3. Awaiters whose tickets arrived during the flush wait; the first to
//      wake with its ticket still unclaimed becomes the next leader and
//      claims everything that accumulated meanwhile. The fsync duration is
//      therefore the natural batching window: the slower the device, the
//      larger the groups, with no tuning.
//
// A failed write or fsync cannot be rewound into "aborted": the group's
// committers already released their locks, and later commits may have read
// their images. Every member of the failed group gets ErrInDoubt, and the
// log fail-stops: batches queued behind it are never written
// (ErrFailStopped), and Enqueue refuses from then on.

// Ticket is an enqueued batch's place in the log, in enqueue order. The
// zero Ticket precedes every batch.
type Ticket uint64

// groupReq is one committer's batch waiting in the coalescer.
type groupReq struct {
	recs    []Record
	sync    bool
	payload any
}

// groupState is the commit coalescer: a queue of enqueued requests and a
// single-flight flag. Tickets up to done are flushed (or failed); those
// above it are queued, or claimed by the flush in progress. cond is
// broadcast after every flush.
type groupState struct {
	mu       sync.Mutex
	cond     sync.Cond
	flushing bool
	queue    []groupReq
	spare    []groupReq // the last group's slice, reused by the next claim
	payloads []any      // the leader's flush-hook argument, reused
	issued   Ticket     // the last ticket handed out
	done     Ticket     // every ticket at or below it is flushed or failed

	// cause is the failed flush's error (nil while none failed); tickets
	// doubtFrom..doubtTo were its group.
	cause              error
	doubtFrom, doubtTo Ticket
}

// SetGroupHook installs a callback observing every group flush with the
// number of commits coalesced into it. Call before the log sees concurrent
// use; the hook runs outside log locks but must be fast and must not call
// back into the Log.
func (l *Log) SetGroupHook(fn func(commits int)) {
	l.onGroup = fn
}

// SetFlushHook installs the callback a leader runs after each successful
// group flush and before any member's Await returns: it receives the
// group's payloads (Enqueue's last argument) in log order. It runs while the
// log holds none of its mutexes, on whichever goroutine leads the flush, and
// must not call back into the Log. Call before the log sees concurrent use.
func (l *Log) SetFlushHook(fn func(payloads []any)) {
	l.onFlush = fn
}

// ErrInDoubt reports a batch whose group flush failed: its records may or
// may not survive a crash, so its commit is neither committed nor aborted
// until a reopen's recovery decides. The log is fail-stopped from then on.
var ErrInDoubt = errors.New("wal: commit outcome in doubt")

// ErrFailStopped refuses a batch after an earlier group flush failed.
// Nothing of the refused batch was written; reopen the log.
var ErrFailStopped = errors.New("wal: log fail-stopped after a failed flush")

// Enqueue gives the batch its place in the log and returns at once; the
// batch is written by the flush that claims it (see Await). payload is
// handed to the flush hook with the group, nil for none. durable asks for
// the group's fsync. Once a flush has failed, Enqueue refuses with
// ErrFailStopped and queues nothing.
func (l *Log) Enqueue(recs []Record, durable bool, payload any) (Ticket, error) {
	g := &l.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cause != nil {
		return 0, fmt.Errorf("%w (%v)", ErrFailStopped, g.cause)
	}
	g.issued++
	g.queue = append(g.queue, groupReq{recs: recs, sync: durable, payload: payload})
	return g.issued, nil
}

// Last returns the ticket of the most recently enqueued batch: Await(Last())
// waits for everything enqueued so far, and returns at once when that is
// flushed already.
func (l *Log) Last() Ticket {
	g := &l.group
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.issued
}

// Await blocks until the batch with ticket t, and every batch enqueued
// before it, is flushed, leading flushes itself while nobody else does (see
// the protocol comment above). It returns ErrInDoubt when t's group failed
// and ErrFailStopped when an earlier group did.
func (l *Log) Await(t Ticket) error {
	g := &l.group
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.done < t {
		if g.flushing {
			g.cond.Wait()
			continue
		}
		l.leadLocked()
	}
	switch {
	case g.cause == nil || t < g.doubtFrom:
		return nil
	case t <= g.doubtTo:
		return fmt.Errorf("%w: %v", ErrInDoubt, g.cause)
	default:
		return fmt.Errorf("%w (%v)", ErrFailStopped, g.cause)
	}
}

// CommitBatch appends the batch and, when durable is set, returns once it is
// on stable storage: Enqueue then Await, for callers with nothing to
// overlap.
func (l *Log) CommitBatch(recs []Record, durable bool) error {
	t, err := l.Enqueue(recs, durable, nil)
	if err != nil {
		return err
	}
	return l.Await(t)
}

// leadLocked claims every queued batch, flushes the group, runs the flush
// hook and publishes the outcome. Caller holds g.mu with the queue non-empty
// and no flush in progress; g.mu is released across the flush.
func (l *Log) leadLocked() {
	g := &l.group
	g.flushing = true
	batch, first, last := g.queue, g.done+1, g.issued
	g.queue, g.spare = g.spare[:0], nil
	stopped := g.cause != nil
	g.mu.Unlock()

	var err error
	if !stopped {
		if err = l.flushGroup(batch); err == nil && l.onFlush != nil {
			ps := g.payloads[:0]
			for i := range batch {
				ps = append(ps, batch[i].payload)
			}
			l.onFlush(ps)
			clear(ps)
			g.payloads = ps[:0]
		}
	}
	clear(batch) // the pooled slice must not pin records or payloads

	g.mu.Lock()
	if err != nil {
		g.cause, g.doubtFrom, g.doubtTo = err, first, last
	}
	g.done = last
	g.spare = batch[:0]
	g.flushing = false
	g.cond.Broadcast()
}

// flushGroup writes every claimed batch with one buffered write and fsyncs
// once if any request wants durability.
func (l *Log) flushGroup(batch []groupReq) error {
	l.mu.Lock()
	err := l.writeFramesLocked(func(buf []byte) []byte {
		for i := range batch {
			buf = frameRecords(buf, batch[i].recs)
		}
		return buf
	})
	l.mu.Unlock()
	if l.onGroup != nil {
		l.onGroup(len(batch))
	}
	durable := false
	for i := range batch {
		durable = durable || batch[i].sync
	}
	if err == nil && durable {
		err = l.fsync()
	}
	return err
}

func (l *Log) fsync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var start time.Time
	if l.onFsync != nil {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if l.onFsync != nil {
		l.onFsync(time.Since(start))
	}
	return nil
}
