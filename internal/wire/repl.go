// Replication payloads. A primary ships every WAL batch to its followers as
// one OpReplFrames push: its durable mark at send time, the batch's
// replication LSN, the raw redo records (the same records the commit logged
// locally), and the occurrences the transaction raised, so the follower can
// fan pushes out to its own subscribers once the mark covers the batch. A
// bare mark frame is a frame with LSN 0, no records and no occurrences.
// Base state for a fresh follower streams as OpReplSnap chunks (object
// images) terminated by OpReplSnapEnd (the base LSN).
//
// Decoding follows the package's bounds rule: every count read off the wire
// is validated against the bytes actually present before any slice is sized
// from it.

package wire

import (
	"errors"
	"fmt"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// ReplRec is the wire form of one WAL redo record. Type/Tx/OID/Data mirror
// wal.Record field for field; wire stays decoupled from the storage package
// so the protocol can evolve independently of the log file format.
type ReplRec struct {
	Type uint8
	Tx   uint64
	OID  oid.OID
	Data []byte // object image for updates; nil otherwise
}

// ReplBatch is one shipped commit: the redo records of a single WAL commit
// batch plus the occurrences that transaction raised. LSN numbers committed
// batches from 1; LSN 0 marks an event-only batch (a commit that raised
// occurrences but wrote nothing durable — fan-out only, nothing to replay),
// or, with no occurrences, a bare mark. Mark is the primary's durable
// replication LSN when the frame left it.
type ReplBatch struct {
	Mark uint64
	LSN  uint64
	Recs []ReplRec
	Occs []Event
}

// ReplSnapObj is one object image in a base-state chunk.
type ReplSnapObj struct {
	ID  oid.OID
	Img []byte
}

// AppendReplBatch appends the value-encoded OpReplFrames payload to buf: the
// mark (AppendReplMark), then the body (AppendReplBody).
func AppendReplBatch(buf []byte, b ReplBatch) []byte {
	return AppendReplBody(AppendReplMark(buf, b.Mark), b)
}

// AppendReplMark appends the field that opens every OpReplFrames payload. A
// primary encodes each batch's body once and stamps it with its current mark
// at every send.
func AppendReplMark(buf []byte, mark uint64) []byte {
	return value.AppendValue(buf, value.Int(int64(mark)))
}

// AppendReplBody appends the rest of b's OpReplFrames payload: everything
// but the mark.
func AppendReplBody(buf []byte, b ReplBatch) []byte {
	buf = value.AppendValue(buf, value.Int(int64(b.LSN)))
	buf = value.AppendValue(buf, value.Int(int64(len(b.Recs))))
	for _, r := range b.Recs {
		buf = value.AppendValue(buf, value.Int(int64(r.Type)))
		buf = value.AppendValue(buf, value.Int(int64(r.Tx)))
		buf = value.AppendValue(buf, value.Ref(r.OID))
		buf = value.AppendValue(buf, value.Str(string(r.Data)))
	}
	buf = value.AppendValue(buf, value.Int(int64(len(b.Occs))))
	for _, ev := range b.Occs {
		buf = AppendEvent(buf, ev)
	}
	return buf
}

// DecodeReplBatch decodes an OpReplFrames payload.
func DecodeReplBatch(payload []byte) (ReplBatch, error) {
	var b ReplBatch
	mark, rest, err := decodeInt(payload, "repl batch mark")
	if err != nil {
		return b, err
	}
	b.Mark = uint64(mark)
	lsn, rest, err := decodeInt(rest, "repl batch lsn")
	if err != nil {
		return b, err
	}
	b.LSN = uint64(lsn)
	nRecs, rest, err := decodeCount(rest, "repl record count", 4)
	if err != nil {
		return b, err
	}
	if nRecs > 0 {
		b.Recs = make([]ReplRec, 0, nRecs)
	}
	for i := 0; i < nRecs; i++ {
		var r ReplRec
		typ, r2, err := decodeInt(rest, "repl record type")
		if err != nil {
			return b, err
		}
		if typ < 0 || typ > 255 {
			return b, errors.New("wire: repl record type out of range")
		}
		r.Type = uint8(typ)
		tx, r3, err := decodeInt(r2, "repl record tx")
		if err != nil {
			return b, err
		}
		r.Tx = uint64(tx)
		var v value.Value
		v, r4, err := value.DecodeValue(r3)
		if err != nil {
			return b, fmt.Errorf("wire: repl record oid: %w", err)
		}
		id, ok := v.AsRef()
		if !ok {
			return b, errors.New("wire: repl record oid is not a ref")
		}
		r.OID = id
		v, r5, err := value.DecodeValue(r4)
		if err != nil {
			return b, fmt.Errorf("wire: repl record data: %w", err)
		}
		data, ok := v.AsString()
		if !ok {
			return b, errors.New("wire: repl record data is not a string")
		}
		if len(data) > 0 {
			r.Data = []byte(data)
		}
		b.Recs = append(b.Recs, r)
		rest = r5
	}
	nOccs, rest, err := decodeCount(rest, "repl occurrence count", 8)
	if err != nil {
		return b, err
	}
	if nOccs > 0 {
		b.Occs = make([]Event, 0, nOccs)
	}
	for i := 0; i < nOccs; i++ {
		vals := make([]value.Value, 0, 8)
		for j := 0; j < 8; j++ {
			var v value.Value
			v, rest, err = value.DecodeValue(rest)
			if err != nil {
				return b, fmt.Errorf("wire: repl occurrence %d value %d: %w", i, j, err)
			}
			vals = append(vals, v)
		}
		ev, err := eventFromValues(vals)
		if err != nil {
			return b, err
		}
		b.Occs = append(b.Occs, ev)
	}
	if len(rest) != 0 {
		return b, fmt.Errorf("wire: %d trailing repl batch bytes", len(rest))
	}
	return b, nil
}

// AppendReplSnap appends a base-state chunk payload to buf.
func AppendReplSnap(buf []byte, objs []ReplSnapObj) []byte {
	buf = value.AppendValue(buf, value.Int(int64(len(objs))))
	for _, o := range objs {
		buf = value.AppendValue(buf, value.Ref(o.ID))
		buf = value.AppendValue(buf, value.Str(string(o.Img)))
	}
	return buf
}

// DecodeReplSnap decodes a base-state chunk payload.
func DecodeReplSnap(payload []byte) ([]ReplSnapObj, error) {
	rest := payload
	n, rest, err := decodeCount(rest, "repl snap count", 2)
	if err != nil {
		return nil, err
	}
	out := make([]ReplSnapObj, 0, n)
	for i := 0; i < n; i++ {
		v, r2, err := value.DecodeValue(rest)
		if err != nil {
			return nil, fmt.Errorf("wire: repl snap oid: %w", err)
		}
		id, ok := v.AsRef()
		if !ok {
			return nil, errors.New("wire: repl snap oid is not a ref")
		}
		v, r3, err := value.DecodeValue(r2)
		if err != nil {
			return nil, fmt.Errorf("wire: repl snap image: %w", err)
		}
		img, ok := v.AsString()
		if !ok {
			return nil, errors.New("wire: repl snap image is not a string")
		}
		out = append(out, ReplSnapObj{ID: id, Img: []byte(img)})
		rest = r3
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing repl snap bytes", len(rest))
	}
	return out, nil
}

// AppendReplSnapEnd appends the OpReplSnapEnd payload: the LSN the base
// state corresponds to.
func AppendReplSnapEnd(buf []byte, baseLSN uint64) []byte {
	return value.AppendValue(buf, value.Int(int64(baseLSN)))
}

// DecodeReplSnapEnd decodes an OpReplSnapEnd payload.
func DecodeReplSnapEnd(payload []byte) (baseLSN uint64, err error) {
	vals, err := DecodeValues(payload, 1)
	if err != nil {
		return 0, err
	}
	lsn, ok := vals[0].AsInt()
	if !ok {
		return 0, errors.New("wire: repl snap-end lsn is not an int")
	}
	return uint64(lsn), nil
}

// decodeInt decodes one int value off the front of rest.
func decodeInt(rest []byte, what string) (int64, []byte, error) {
	v, rest, err := value.DecodeValue(rest)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: %s: %w", what, err)
	}
	n, ok := v.AsInt()
	if !ok {
		return 0, nil, fmt.Errorf("wire: %s is not an int", what)
	}
	return n, rest, nil
}

// decodeCount decodes a count and bounds it by the bytes remaining: each
// counted element occupies at least minBytes encoded bytes, so a hostile
// count can never over-allocate (the same discipline as DecodeFrame and the
// value decoder's list bound).
func decodeCount(rest []byte, what string, minBytes int) (int, []byte, error) {
	n, rest, err := decodeInt(rest, what)
	if err != nil {
		return 0, nil, err
	}
	if n < 0 || n > int64(len(rest)/minBytes)+1 {
		return 0, nil, fmt.Errorf("wire: %s %d exceeds payload", what, n)
	}
	return int(n), rest, nil
}
