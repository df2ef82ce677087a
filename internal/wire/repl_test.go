package wire

// Replication codec coverage: round-trips for the three payload shapes the
// stream carries (frames batch, snap chunk, snap end), the bounds rule on
// hostile counts, and a fuzz target over the batch decoder (the largest of
// the three surfaces — it embeds the full event codec per occurrence).

import (
	"bytes"
	"testing"

	"sentinel/internal/value"
)

func sampleBatch() ReplBatch {
	return ReplBatch{
		LSN: 42,
		Recs: []ReplRec{
			{Type: 1, Tx: 7, OID: 3, Data: []byte("image-bytes")},
			{Type: 2, Tx: 7, OID: 9},
			{Type: 3, Tx: 7},
		},
		Occs: []Event{
			{Source: 3, Class: "Item", Method: "SetVal", Moment: 1, Seq: 99,
				Args: []value.Value{value.Int(5)}, ParamNames: []string{"v"}},
			{Source: 9, Class: "Item", Method: "Gone", Moment: 2, Seq: 100},
		},
	}
}

func TestReplBatchRoundTrip(t *testing.T) {
	in := sampleBatch()
	out, err := DecodeReplBatch(AppendReplBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.LSN != in.LSN || len(out.Recs) != len(in.Recs) || len(out.Occs) != len(in.Occs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i, r := range out.Recs {
		w := in.Recs[i]
		if r.Type != w.Type || r.Tx != w.Tx || r.OID != w.OID || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d: %+v vs %+v", i, r, w)
		}
	}
	for i, e := range out.Occs {
		w := in.Occs[i]
		if e.Source != w.Source || e.Class != w.Class || e.Method != w.Method ||
			e.Moment != w.Moment || e.Seq != w.Seq || len(e.Args) != len(w.Args) {
			t.Fatalf("occurrence %d: %+v vs %+v", i, e, w)
		}
	}
}

func TestReplBatchRoundTripEmpty(t *testing.T) {
	out, err := DecodeReplBatch(AppendReplBatch(nil, ReplBatch{LSN: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if out.LSN != 1 || out.Recs != nil || out.Occs != nil {
		t.Fatalf("empty batch round trip: %+v", out)
	}
}

// TestReplBatchMark: the mark round-trips on a data batch; a primary's
// per-send stamp (AppendReplMark, then the retained AppendReplBody) is the
// same payload AppendReplBatch builds; and a bare mark frame decodes as a
// batch with the mark and nothing else.
func TestReplBatchMark(t *testing.T) {
	in := sampleBatch()
	in.Mark = 41
	payload := AppendReplBatch(nil, in)
	if stamped := AppendReplBody(AppendReplMark(nil, 41), in); !bytes.Equal(stamped, payload) {
		t.Fatalf("stamped body %x differs from the batch payload %x", stamped, payload)
	}
	out, err := DecodeReplBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Mark != 41 || out.LSN != 42 || len(out.Recs) != 3 || len(out.Occs) != 2 {
		t.Fatalf("marked batch round trip: %+v", out)
	}
	bare, err := DecodeReplBatch(AppendReplBatch(nil, ReplBatch{Mark: 1 << 40}))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Mark != 1<<40 || bare.LSN != 0 || bare.Recs != nil || bare.Occs != nil {
		t.Fatalf("bare mark round trip: %+v", bare)
	}
	if _, err := DecodeReplBatch(AppendReplMark(nil, 7)); err == nil {
		t.Fatal("a mark with no body accepted")
	}
}

func TestReplSnapRoundTrip(t *testing.T) {
	in := []ReplSnapObj{
		{ID: 1, Img: []byte("a")},
		{ID: 2, Img: []byte("bb")},
		{ID: 3, Img: nil},
	}
	out, err := DecodeReplSnap(AppendReplSnap(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("snap count %d, want %d", len(out), len(in))
	}
	for i, o := range out {
		if o.ID != in[i].ID || !bytes.Equal(o.Img, in[i].Img) && len(o.Img)+len(in[i].Img) > 0 {
			t.Fatalf("snap obj %d: %+v vs %+v", i, o, in[i])
		}
	}
}

func TestReplSnapEndRoundTrip(t *testing.T) {
	lsn, err := DecodeReplSnapEnd(AppendReplSnapEnd(nil, 77))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 77 {
		t.Fatalf("snap end round trip: lsn=%d", lsn)
	}
	// A version-3 payload still carried the meta blob after the LSN.
	v3 := value.AppendValue(AppendReplSnapEnd(nil, 77), value.Str("meta-blob"))
	if _, err := DecodeReplSnapEnd(v3); err == nil {
		t.Fatal("snap end with a trailing meta blob accepted")
	}
}

// TestReplDecodeBounds: hostile counts must reject before any allocation
// is sized from them (the package's decodeCount discipline).
func TestReplDecodeBounds(t *testing.T) {
	// A batch claiming 1<<40 records with a 4-byte payload.
	hostile := AppendReplMark(nil, 1)
	hostile = value.AppendValue(hostile, value.Int(1)) // LSN
	hostile = value.AppendValue(hostile, value.Int(1<<40))
	if _, err := DecodeReplBatch(hostile); err == nil {
		t.Fatal("hostile record count accepted")
	}
	// A snap chunk claiming 1<<40 objects.
	snap := value.AppendValue(nil, value.Int(1<<40))
	if _, err := DecodeReplSnap(snap); err == nil {
		t.Fatal("hostile snap count accepted")
	}
	// Trailing garbage rejects.
	good := AppendReplBatch(nil, ReplBatch{LSN: 1})
	if _, err := DecodeReplBatch(append(good, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func FuzzDecodeReplBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendReplBatch(nil, ReplBatch{LSN: 1}))
	f.Add(AppendReplBatch(nil, sampleBatch()))
	marked := sampleBatch()
	marked.Mark = 41
	f.Add(AppendReplBatch(nil, marked))
	f.Add(AppendReplBatch(nil, ReplBatch{Mark: 9})) // bare mark
	f.Add(AppendReplSnap(nil, []ReplSnapObj{{ID: 5, Img: []byte("img")}}))
	f.Add(AppendReplSnapEnd(nil, 9))
	f.Add(value.AppendValue(AppendReplSnapEnd(nil, 9), value.Str("m"))) // v3 shape
	// Hostile count with a dangling tail.
	f.Add(value.AppendValue(value.AppendValue(nil, value.Int(2)), value.Int(1<<30)))
	// Failover-era admin payloads (v3): an epoch-carrying ack and an
	// OpReplFence epoch — value-encoded ints, exactly the shapes a confused
	// peer might aim at the batch decoders.
	f.Add(AppendValues(nil, value.Int(42), value.Int(7)))
	f.Add(AppendValues(nil, value.Int(1<<62)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// None of the three decoders may panic or over-allocate; any batch
		// the decoder accepts must re-encode to an equally decodable form.
		if b, err := DecodeReplBatch(data); err == nil {
			if _, err := DecodeReplBatch(AppendReplBatch(nil, b)); err != nil {
				t.Fatalf("re-encode of accepted batch rejected: %v", err)
			}
		}
		if objs, err := DecodeReplSnap(data); err == nil {
			if _, err := DecodeReplSnap(AppendReplSnap(nil, objs)); err != nil {
				t.Fatalf("re-encode of accepted snap rejected: %v", err)
			}
		}
		if lsn, err := DecodeReplSnapEnd(data); err == nil {
			if got, err := DecodeReplSnapEnd(AppendReplSnapEnd(nil, lsn)); err != nil || got != lsn {
				t.Fatalf("re-encode of accepted snap end = %d, %v", got, err)
			}
		}
	})
}
