// Package wire defines the sentinel-server binary protocol: length-prefixed
// frames whose payloads reuse the internal/value binary encoding, so every
// scalar that crosses the wire is encoded exactly as the storage layer
// encodes it.
//
// Frame layout (all integers big-endian):
//
//	length  uint32  // bytes after this field: 1 (opcode) + 4 (request id) + payload
//	opcode  uint8
//	reqid   uint32  // client-chosen pipelining correlation id; 0 on pushes
//	payload []byte  // a sequence of value-encoded items, opcode-specific
//
// The request id lets a client pipeline: it may send any number of request
// frames without waiting, and the server answers each with a response frame
// carrying the same id, in request order. Unsolicited frames — push events
// delivered to subscriptions — carry request id 0, which clients must never
// use for requests.
//
// Decoding is strictly bounded: a frame longer than MaxFrameLen is rejected
// before any allocation, and DecodeFrame never allocates at all (the payload
// aliases the input buffer). This mirrors the WAL's length-bounds rule: an
// attacker-controlled length field must be validated against both the hard
// cap and the bytes actually present before any buffer is sized from it.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// ProtocolVersion is negotiated in Hello/Welcome; the server rejects a
// client whose version it does not speak.
//
// History: 1 = PR 7 request/response + push subscriptions; 2 adds the
// replication opcodes (OpReplHello/OpReplAck/OpReplWelcome and the
// OpReplFrames/OpReplSnap pushes); 3 adds failover — OpReplAck gains a
// trailing epoch, and OpReplPromote/OpReplFence carry the promotion and
// fencing admin ops; 4 cuts OpReplSnapEnd to the base LSN alone (the meta
// blob it also carried was never read); 5 adds the durable mark — every
// OpReplFrames payload opens with the primary's durable replication LSN, and
// OpReplHello gains the follower's logged LSN. A client with a version the server
// does not speak gets a clean version-mismatch OpErr instead of an
// unknown-opcode failure mid-session.
const ProtocolVersion = 5

// MaxFrameLen caps the length field (opcode + reqid + payload): 8 MiB.
// Large enough for any script or result the shell produces, small enough
// that a corrupt or hostile length can never balloon a session's memory.
const MaxFrameLen = 8 << 20

// headerLen is the fixed-size prefix: u32 length + u8 opcode + u32 reqid.
const headerLen = 9

// minFrameLen is the smallest legal length-field value (opcode + reqid).
const minFrameLen = 5

// Opcodes. Requests (client → server) occupy the low range, responses
// (server → client) start at 16, and unsolicited pushes at 32.
const (
	OpHello       byte = 1  // [int version]             → OpWelcome
	OpPing        byte = 2  // []                        → OpPong
	OpExec        byte = 3  // [str script]              → OpOK | OpErr
	OpEval        byte = 4  // [str expr]                → OpResult | OpErr
	OpLookup      byte = 5  // [str name]                → OpResult (ref | nil)
	OpGet         byte = 6  // [ref oid, str attr]       → OpResult (snapshot read)
	OpInstances   byte = 7  // [str class]               → OpResult (list of refs; snapshot read)
	OpSubscribe   byte = 8  // [ref oid, str event, int moment] → OpSubOK | OpErr
	OpUnsubscribe byte = 9  // [int subID]               → OpOK | OpErr
	OpReplHello   byte = 10 // [int appliedLSN, int epoch, int loggedLSN] → OpReplWelcome | OpErr
	OpReplAck     byte = 11 // [int loggedLSN, int epoch] → OpOK | OpErr
	OpReplPromote byte = 12 // []                        → OpOK | OpErr (admin: promote this follower)
	OpReplFence   byte = 13 // [int newEpoch]            → OpOK | OpErr (admin: fence if newEpoch is newer)

	OpOK          byte = 16 // []
	OpErr         byte = 17 // [str message]
	OpResult      byte = 18 // [value]
	OpPong        byte = 19 // []
	OpWelcome     byte = 20 // [int version, int sessionID]
	OpSubOK       byte = 21 // [int subID]
	OpReplWelcome byte = 22 // [int epoch, int shippedLSN, int needBase (0|1)]

	OpEvent       byte = 32 // push: see AppendEvent/DecodeEvent; reqid is 0
	OpReplFrames  byte = 33 // push: see AppendReplBatch/DecodeReplBatch; reqid is 0
	OpReplSnap    byte = 34 // push: base-state chunk, see AppendReplSnap; reqid is 0
	OpReplSnapEnd byte = 35 // push: [int baseLSN]; reqid is 0
)

// MomentAny is the Subscribe moment wildcard: deliver begin, end and
// explicit occurrences alike. The concrete moments use event.Moment's
// values (0 = begin, 1 = end, 2 = explicit).
const MomentAny = 255

// OpName renders an opcode for diagnostics.
func OpName(op byte) string {
	switch op {
	case OpHello:
		return "HELLO"
	case OpPing:
		return "PING"
	case OpExec:
		return "EXEC"
	case OpEval:
		return "EVAL"
	case OpLookup:
		return "LOOKUP"
	case OpGet:
		return "GET"
	case OpInstances:
		return "INSTANCES"
	case OpSubscribe:
		return "SUBSCRIBE"
	case OpUnsubscribe:
		return "UNSUBSCRIBE"
	case OpReplHello:
		return "REPLHELLO"
	case OpReplAck:
		return "REPLACK"
	case OpReplPromote:
		return "REPLPROMOTE"
	case OpReplFence:
		return "REPLFENCE"
	case OpOK:
		return "OK"
	case OpErr:
		return "ERR"
	case OpResult:
		return "RESULT"
	case OpPong:
		return "PONG"
	case OpWelcome:
		return "WELCOME"
	case OpSubOK:
		return "SUBOK"
	case OpReplWelcome:
		return "REPLWELCOME"
	case OpEvent:
		return "EVENT"
	case OpReplFrames:
		return "REPLFRAMES"
	case OpReplSnap:
		return "REPLSNAP"
	case OpReplSnapEnd:
		return "REPLSNAPEND"
	default:
		return fmt.Sprintf("OP(%d)", op)
	}
}

// Frame is one decoded protocol frame. Payload may alias the decode
// buffer; callers that retain a frame past the next read must copy it.
type Frame struct {
	Op      byte
	ReqID   uint32
	Payload []byte
}

// ErrFrameTooLarge rejects frames whose length field exceeds MaxFrameLen.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameLen")

// ErrShortFrame rejects frames whose length field is below the fixed
// opcode+reqid minimum.
var ErrShortFrame = errors.New("wire: frame length below minimum")

// AppendFrame appends the encoded frame to buf and returns the extended
// slice.
func AppendFrame(buf []byte, f Frame) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(minFrameLen+len(f.Payload)))
	buf = append(buf, f.Op)
	buf = binary.BigEndian.AppendUint32(buf, f.ReqID)
	return append(buf, f.Payload...)
}

// DecodeFrame decodes one frame from the front of buf, returning the frame
// and the remaining bytes. The frame's payload aliases buf — zero copies,
// zero allocations — so arbitrary input can never over-allocate: the length
// field is checked against MaxFrameLen and against the bytes actually
// present before it is used for anything.
func DecodeFrame(buf []byte) (Frame, []byte, error) {
	if len(buf) < headerLen {
		return Frame{}, nil, fmt.Errorf("wire: short frame header (%d bytes)", len(buf))
	}
	ln := binary.BigEndian.Uint32(buf)
	if ln > MaxFrameLen {
		return Frame{}, nil, ErrFrameTooLarge
	}
	if ln < minFrameLen {
		return Frame{}, nil, ErrShortFrame
	}
	if uint32(len(buf)-4) < ln {
		return Frame{}, nil, fmt.Errorf("wire: truncated frame (want %d payload bytes, have %d)", ln, len(buf)-4)
	}
	f := Frame{
		Op:      buf[4],
		ReqID:   binary.BigEndian.Uint32(buf[5:]),
		Payload: buf[headerLen : 4+ln],
	}
	return f, buf[4+ln:], nil
}

// connBufSize sizes a connection's read and write buffers, on both ends.
// Idle-session memory is dominated by these plus the two goroutine stacks,
// so they stay small: 1 KiB each way covers every control frame in one
// buffer, large payloads fall through bufio to the socket directly, and 10k
// idle sessions cost ~20 MB of buffer instead of bufio's default ~80 MB.
const connBufSize = 1024

// NewReader returns the buffered reader ReadFrame expects over a connection.
func NewReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, connBufSize) }

// NewWriter returns the matching buffered writer.
func NewWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, connBufSize) }

// ReadFrame reads one frame from r, reusing scratch for the payload when it
// is large enough (the returned frame's payload aliases the returned
// scratch). The length field is validated against MaxFrameLen before any
// buffer is sized from it.
func ReadFrame(r *bufio.Reader, scratch []byte) (Frame, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, scratch, err
	}
	ln := binary.BigEndian.Uint32(hdr[:])
	if ln > MaxFrameLen {
		return Frame{}, scratch, ErrFrameTooLarge
	}
	if ln < minFrameLen {
		return Frame{}, scratch, ErrShortFrame
	}
	n := int(ln) - minFrameLen
	if cap(scratch) < n {
		// Size from the validated length only — it is already capped at
		// MaxFrameLen, so a hostile length cannot balloon the scratch.
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return Frame{}, scratch, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	return Frame{
		Op:      hdr[4],
		ReqID:   binary.BigEndian.Uint32(hdr[5:]),
		Payload: scratch,
	}, scratch, nil
}

// WriteFrame appends the frame to buf (reusing its capacity), writes the
// result to w in one call, and returns the buffer for reuse.
func WriteFrame(w io.Writer, buf []byte, f Frame) ([]byte, error) {
	buf = AppendFrame(buf[:0], f)
	_, err := w.Write(buf)
	return buf, err
}

// ---- payload helpers ----

// AppendValues appends each value's binary encoding to buf.
func AppendValues(buf []byte, vals ...value.Value) []byte {
	for _, v := range vals {
		buf = value.AppendValue(buf, v)
	}
	return buf
}

// DecodeValues decodes exactly n values from payload, erroring on trailing
// bytes. n is bounded by the caller's opcode contract, never by wire input.
func DecodeValues(payload []byte, n int) ([]value.Value, error) {
	out := make([]value.Value, 0, n)
	rest := payload
	for i := 0; i < n; i++ {
		var (
			v   value.Value
			err error
		)
		v, rest, err = value.DecodeValue(rest)
		if err != nil {
			return nil, fmt.Errorf("wire: payload value %d: %w", i, err)
		}
		out = append(out, v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing payload bytes", len(rest))
	}
	return out, nil
}

// Event is one pushed occurrence: a committed primitive event delivered to
// a subscription. It is the wire form of the paper's generated-event
// message (Oid + Class + Method + actual parameters + timestamp) plus the
// subscription it matched.
type Event struct {
	SubID      uint64
	Source     oid.OID
	Class      string
	Method     string
	Moment     uint8 // 0 begin, 1 end, 2 explicit
	Seq        uint64
	Args       []value.Value
	ParamNames []string
}

// AppendEvent appends the value-encoded push-event payload to buf.
func AppendEvent(buf []byte, ev Event) []byte {
	buf = value.AppendValue(buf, value.Int(int64(ev.SubID)))
	buf = value.AppendValue(buf, value.Ref(ev.Source))
	buf = value.AppendValue(buf, value.Str(ev.Class))
	buf = value.AppendValue(buf, value.Str(ev.Method))
	buf = value.AppendValue(buf, value.Int(int64(ev.Moment)))
	buf = value.AppendValue(buf, value.Int(int64(ev.Seq)))
	buf = value.AppendValue(buf, value.List(ev.Args...))
	names := make([]value.Value, len(ev.ParamNames))
	for i, n := range ev.ParamNames {
		names[i] = value.Str(n)
	}
	return value.AppendValue(buf, value.List(names...))
}

// DecodeEvent decodes a push-event payload.
func DecodeEvent(payload []byte) (Event, error) {
	vals, err := DecodeValues(payload, 8)
	if err != nil {
		return Event{}, err
	}
	return eventFromValues(vals)
}

// eventFromValues builds an Event from its 8 decoded payload values; shared
// by DecodeEvent and the replication batch decoder, which embeds the same
// 8-value layout per shipped occurrence.
func eventFromValues(vals []value.Value) (Event, error) {
	var ev Event
	subID, ok := vals[0].AsInt()
	if !ok {
		return Event{}, errors.New("wire: event subID is not an int")
	}
	ev.SubID = uint64(subID)
	src, ok := vals[1].AsRef()
	if !ok {
		return Event{}, errors.New("wire: event source is not a ref")
	}
	ev.Source = src
	if ev.Class, ok = vals[2].AsString(); !ok {
		return Event{}, errors.New("wire: event class is not a string")
	}
	if ev.Method, ok = vals[3].AsString(); !ok {
		return Event{}, errors.New("wire: event method is not a string")
	}
	moment, ok := vals[4].AsInt()
	if !ok || moment < 0 || moment > 255 {
		return Event{}, errors.New("wire: event moment out of range")
	}
	ev.Moment = uint8(moment)
	seq, ok := vals[5].AsInt()
	if !ok {
		return Event{}, errors.New("wire: event seq is not an int")
	}
	ev.Seq = uint64(seq)
	args, ok := vals[6].AsList()
	if !ok {
		return Event{}, errors.New("wire: event args is not a list")
	}
	ev.Args = args
	names, ok := vals[7].AsList()
	if !ok {
		return Event{}, errors.New("wire: event param names is not a list")
	}
	if len(names) > 0 {
		ev.ParamNames = make([]string, len(names))
		for i, n := range names {
			s, ok := n.AsString()
			if !ok {
				return Event{}, errors.New("wire: event param name is not a string")
			}
			ev.ParamNames[i] = s
		}
	}
	return ev, nil
}

// ErrPayload builds an OpErr payload.
func ErrPayload(msg string) []byte {
	return value.AppendValue(nil, value.Str(msg))
}

// DecodeErr extracts the message from an OpErr payload.
func DecodeErr(payload []byte) string {
	v, _, err := value.DecodeValue(payload)
	if err != nil {
		return "malformed error payload"
	}
	s, _ := v.AsString()
	return s
}
