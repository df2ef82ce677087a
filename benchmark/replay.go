package main

// replay.go times single layers alone, after the window, by feeding them
// what the workload fed them: the wire codecs get the frames the run
// exchanged, the parser the scripts it was sent, a standalone detector the
// occurrence stream. Nothing else of the system runs, so each figure is
// that layer's own cost per unit of work.

import (
	"time"

	"sentinel/internal/event"
	"sentinel/internal/lang"
	"sentinel/internal/oid"
	"sentinel/internal/wire"
)

// parseReplay returns the parser's cost per script.
func parseReplay(scripts []string) (nsPerReq float64, err error) {
	if len(scripts) == 0 {
		return 0, nil
	}
	t0 := time.Now()
	for _, s := range scripts {
		if _, err := lang.ParseScript(s, nil); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(len(scripts)), nil
}

// wireReplay encodes and decodes every frame through wire's public codecs
// (frame header plus the payload codec its opcode implies) and returns the
// mean cost per frame and the bytes on the wire per operation.
func wireReplay(frames []wire.Frame, ops int) (encNs, decNs, bytesPerOp float64, err error) {
	if len(frames) == 0 || ops == 0 {
		return 0, 0, 0, nil
	}
	// Decode payloads first into their typed form, so encoding starts from
	// what the sender started from.
	type typed struct {
		f     wire.Frame
		ev    wire.Event
		batch wire.ReplBatch
	}
	ts := make([]typed, len(frames))
	for i, f := range frames {
		ts[i].f = f
		switch f.Op {
		case wire.OpEvent:
			if ts[i].ev, err = wire.DecodeEvent(f.Payload); err != nil {
				return 0, 0, 0, err
			}
		case wire.OpReplFrames:
			if ts[i].batch, err = wire.DecodeReplBatch(f.Payload); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	var buf []byte
	encoded := make([][]byte, len(ts))
	t0 := time.Now()
	for i := range ts {
		f := ts[i].f
		switch f.Op {
		case wire.OpEvent:
			f.Payload = wire.AppendEvent(nil, ts[i].ev)
		case wire.OpReplFrames:
			f.Payload = wire.AppendReplBatch(nil, ts[i].batch)
		}
		buf = wire.AppendFrame(buf[:0], f)
		encoded[i] = append([]byte(nil), buf...)
	}
	encNs = float64(time.Since(t0)) / float64(len(ts))
	var total int
	t0 = time.Now()
	for _, b := range encoded {
		total += len(b)
		f, _, err := wire.DecodeFrame(b)
		if err != nil {
			return 0, 0, 0, err
		}
		switch f.Op {
		case wire.OpEvent:
			_, err = wire.DecodeEvent(f.Payload)
		case wire.OpReplFrames:
			_, err = wire.DecodeReplBatch(f.Payload)
		case wire.OpExec:
			_, err = wire.DecodeValues(f.Payload, 1)
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	decNs = float64(time.Since(t0)) / float64(len(ts))
	return encNs, decNs, float64(total) / float64(ops), nil
}

// eventReplay feeds the run's occurrence stream — one entry per occurrence,
// true when the index raised it — through a standalone detector for the buy
// rule's event and returns the cost per occurrence.
func eventReplay(fromIndex []bool) float64 {
	if len(fromIndex) == 0 {
		return 0
	}
	expr := event.Seq(
		event.Primitive(event.End, "Stock", "SetPrice"),
		event.Primitive(event.End, "Index", "SetValue"))
	det, err := event.NewDetector(expr, nil, event.ContextPaper)
	if err != nil {
		return 0
	}
	stock := event.Occurrence{Source: oid.OID(1), Class: "Stock", Method: "SetPrice", When: event.End}
	index := event.Occurrence{Source: oid.OID(2), Class: "Index", Method: "SetValue", When: event.End}
	t0 := time.Now()
	for i, idx := range fromIndex {
		o := stock
		if idx {
			o = index
		}
		o.Seq = uint64(i + 1)
		det.Feed(o)
	}
	return float64(time.Since(t0)) / float64(len(fromIndex))
}

// occurrenceStream extracts, from one node's tracer records, which
// occurrences came from an index object.
func occurrenceStream(recs []rec, node uint8, isIndex func(oid.OID) bool) []bool {
	var out []bool
	for _, r := range recs {
		if r.node == node && r.kind == recOcc {
			out = append(out, isIndex(oid.OID(r.aux)))
		}
	}
	return out
}
