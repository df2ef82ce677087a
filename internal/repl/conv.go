package repl

import (
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/wal"
	"sentinel/internal/wire"
)

// BatchToWire converts a core batch to its wire form. The wire encoder
// copies record Data out of the pooled commit scratch, so the conversion
// itself may alias freely.
func BatchToWire(b core.ReplBatch) wire.ReplBatch {
	w := wire.ReplBatch{Mark: b.Mark, LSN: b.LSN}
	if len(b.Recs) > 0 {
		w.Recs = make([]wire.ReplRec, len(b.Recs))
		for i, r := range b.Recs {
			w.Recs[i] = wire.ReplRec{Type: uint8(r.Type), Tx: r.Tx, OID: r.OID, Data: r.Data}
		}
	}
	if len(b.Occs) > 0 {
		w.Occs = make([]wire.Event, len(b.Occs))
		for i, o := range b.Occs {
			w.Occs[i] = wire.Event{
				Source:     o.Source,
				Class:      o.Class,
				Method:     o.Method,
				Moment:     uint8(o.When),
				Seq:        o.Seq,
				Args:       o.Args,
				ParamNames: o.ParamNames,
			}
		}
	}
	return w
}

// BatchFromWire converts a decoded wire batch back to the core form the
// replica's apply path consumes. Tx on the occurrence is the primary's
// transaction id carried in the records; coupling modes never run on a
// replica (rules fire on the primary only), so it is informational.
func BatchFromWire(w wire.ReplBatch) core.ReplBatch {
	b := core.ReplBatch{LSN: w.LSN, Mark: w.Mark}
	if len(w.Recs) > 0 {
		b.Recs = make([]wal.Record, len(w.Recs))
		for i, r := range w.Recs {
			b.Recs[i] = wal.Record{Type: wal.RecordType(r.Type), Tx: r.Tx, OID: r.OID, Data: r.Data}
		}
	}
	if len(w.Occs) > 0 {
		b.Occs = make([]event.Occurrence, len(w.Occs))
		for i, e := range w.Occs {
			b.Occs[i] = event.Occurrence{
				Source:     e.Source,
				Class:      e.Class,
				Method:     e.Method,
				When:       event.Moment(e.Moment),
				Seq:        e.Seq,
				Args:       e.Args,
				ParamNames: e.ParamNames,
			}
		}
	}
	return b
}
