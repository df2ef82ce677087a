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
	size int64
	sync syncState // group-commit state (see SyncBarrier)

	// buf is the reusable frame-encoding buffer for AppendBatch. Guarded
	// by mu (appends serialize on it), so steady-state commits frame their
	// records without allocating per record.
	buf []byte

	// group is the commit coalescer (see CommitBatch).
	group groupState

	// failed is the sticky fail-stop error, set under mu once a failed group
	// flush could not be rewound (see rewind); every later flush refuses.
	failed error

	// Instrumentation hooks (see SetHooks / SetGroupHook); nil means
	// uninstrumented.
	onAppend func(bytes int, d time.Duration)
	onFsync  func(d time.Duration)
	onGroup  func(commits int)
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
	return &Log{fs: fs, f: f, path: path, size: size}, nil
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

// Size returns the current log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
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
	l.size += int64(frameHeader + len(payload))
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
	l.size += int64(len(buf))
	if l.onAppend != nil {
		l.onAppend(len(buf), time.Since(start))
	}
	return nil
}

// Sync forces the log to stable storage.
func (l *Log) Sync() error {
	return l.fsync()
}

// Truncate atomically replaces the log with one containing only a
// checkpoint record. Called after the heap has been flushed and synced.
func (l *Log) Truncate() error {
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
	l.size = nl.size
	// The file was replaced: reset the group-commit high-water mark so
	// stale offsets from the old file cannot satisfy new barriers.
	l.sync.mu.Lock()
	l.sync.syncedTo = 0
	l.sync.mu.Unlock()
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
		if ln > 1<<30 || int64(ln) > l.size-off-frameHeader {
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
	l.size = off
	l.sync.mu.Lock()
	if l.sync.syncedTo > off {
		l.sync.syncedTo = off
	}
	l.sync.mu.Unlock()
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

// Group commit: concurrent committers that all need durability share one
// fsync. SyncBarrier returns once every byte appended before the call is on
// stable storage; under concurrency one caller becomes the leader and
// fsyncs for the whole group while the others wait.

type syncState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	syncing  bool
	syncedTo int64
}

func (l *Log) syncStateInit() {
	if l.sync.cond == nil {
		l.sync.cond = sync.NewCond(&l.sync.mu)
	}
}

// SyncBarrier blocks until everything appended before the call is durable,
// performing at most one fsync per waiting group.
func (l *Log) SyncBarrier() error {
	l.mu.Lock()
	target := l.size
	l.mu.Unlock()

	s := &l.sync
	s.mu.Lock()
	l.syncStateInit()
	for {
		if s.syncedTo >= target {
			s.mu.Unlock()
			return nil
		}
		if !s.syncing {
			break // become the leader
		}
		s.cond.Wait()
	}
	s.syncing = true
	s.mu.Unlock()

	// Leader: capture the current end of log, fsync, publish.
	l.mu.Lock()
	flushedTo := l.size
	l.mu.Unlock()
	err := l.fsync()

	s.mu.Lock()
	if err == nil && flushedTo > s.syncedTo {
		s.syncedTo = flushedTo
	}
	s.syncing = false
	s.cond.Broadcast()
	s.mu.Unlock()
	return err
}

// ---- group commit ----
//
// CommitBatch is the transactional append path: concurrent committers
// publish their record batches to a coalescer that frames every queued batch
// into ONE buffered write and (when durability is requested) ONE fsync.
//
// The protocol is leader/follower with handoff:
//
//   1. A caller enqueues its request. If no flush is in progress it becomes
//      the leader immediately — an idle log commits at single-commit
//      latency, there is no timer on this path.
//   2. The leader claims the whole queue, releases the queue lock, flushes
//      the group (one write, at most one fsync), then marks every claimed
//      request done and broadcasts.
//   3. Callers that arrived while the leader was flushing wait; the first
//      one to wake with its request still unclaimed becomes the next leader
//      and claims everything that accumulated during the flush. The fsync
//      duration is therefore the natural batching window: the slower the
//      device, the larger the groups, with no tuning.

// groupReq is one committer's batch waiting in the coalescer.
type groupReq struct {
	recs []Record
	sync bool
	done bool
	err  error
}

// groupState is the commit coalescer: a queue of waiting requests and a
// single-flight flag. cond is broadcast after every flush.
type groupState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	flushing bool
	queue    []*groupReq
}

// SetGroupHook installs a callback observing every group flush with the
// number of commits coalesced into it. Call before the log sees concurrent
// use; the hook runs outside log locks but must be fast and must not call
// back into the Log.
func (l *Log) SetGroupHook(fn func(commits int)) {
	l.onGroup = fn
}

// ErrInDoubt reports a group whose flush failed and whose rewind failed
// too: its records may or may not survive a crash, so its commits are
// neither committed nor aborted until a reopen's recovery decides. The log
// is fail-stopped from then on.
var ErrInDoubt = errors.New("wal: commit outcome in doubt")

// ErrFailStopped refuses a commit after an earlier failed flush could not be
// rewound. Nothing of the refused commit was written; reopen the log.
var ErrFailStopped = errors.New("wal: log fail-stopped after a failed rewind")

// CommitBatch appends the batch atomically with respect to other CommitBatch
// callers and, when durable is set, returns only once the batch is on stable
// storage. Concurrent callers are coalesced into one write + one fsync (see
// the protocol comment above). On error every commit in the group reports
// it, and the group's records are gone from the log — a failed flush is
// rewound before anyone hears of it — unless the error is ErrInDoubt.
func (l *Log) CommitBatch(recs []Record, durable bool) error {
	g := &l.group
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	req := &groupReq{recs: recs, sync: durable}
	g.queue = append(g.queue, req)
	for !req.done && g.flushing {
		g.cond.Wait()
	}
	if req.done {
		// A leader flushed us while we waited (follower path).
		err := req.err
		g.mu.Unlock()
		return err
	}
	// Leader: claim everything queued, flush, hand off.
	g.flushing = true
	batch := g.queue
	g.queue = nil
	g.mu.Unlock()

	err := l.flushGroup(batch)

	g.mu.Lock()
	for _, r := range batch {
		r.done = true
		r.err = err
	}
	g.flushing = false
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// flushGroup writes every claimed batch with one buffered write and fsyncs
// once if any request wants durability. A failed write or fsync is rewound.
func (l *Log) flushGroup(batch []*groupReq) error {
	l.mu.Lock()
	if l.failed != nil {
		l.mu.Unlock()
		return l.failed
	}
	start := l.size
	err := l.writeFramesLocked(func(buf []byte) []byte {
		for _, r := range batch {
			buf = frameRecords(buf, r.recs)
		}
		return buf
	})
	target := l.size
	l.mu.Unlock()
	if l.onGroup != nil {
		l.onGroup(len(batch))
	}
	durable := false
	for _, r := range batch {
		durable = durable || r.sync
	}
	if err == nil && durable {
		err = l.fsync()
	}
	if err != nil {
		return l.rewind(start, err)
	}
	if durable {
		// Keep SyncBarrier's high-water mark coherent: everything up to
		// target is durable now.
		l.sync.mu.Lock()
		if target > l.sync.syncedTo {
			l.sync.syncedTo = target
		}
		l.sync.mu.Unlock()
	}
	return nil
}

// rewind undoes a failed group flush: the log is truncated back to where the
// group began and that is synced, so no later fsync can make the failed
// group's records durable behind its committers' "aborted". If the rewind
// fails too, the group's fate is unknown (ErrInDoubt) and the log
// fail-stops: every later flush refuses with ErrFailStopped.
func (l *Log) rewind(start int64, cause error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.f.Truncate(start)
	if err == nil {
		_, err = l.f.Seek(start, io.SeekStart)
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.failed = fmt.Errorf("%w (flush: %v; rewind: %v)", ErrFailStopped, cause, err)
		return fmt.Errorf("%w: %v; rewinding the log failed: %v", ErrInDoubt, cause, err)
	}
	l.size = start
	l.sync.mu.Lock()
	if l.sync.syncedTo > start {
		l.sync.syncedTo = start
	}
	l.sync.mu.Unlock()
	return cause
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
