package index

import (
	"math"
	"slices"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

func TestAddLookupRemove(t *testing.T) {
	h := NewHash("Emp", "name")
	h.Add(1, value.Str("fred"))
	h.Add(2, value.Str("fred"))
	h.Add(3, value.Str("mary"))

	if got := h.Lookup(value.Str("fred")); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("lookup fred = %v", got)
	}
	if got := h.Lookup(value.Str("mary")); len(got) != 1 || got[0] != 3 {
		t.Fatalf("lookup mary = %v", got)
	}
	if got := h.Lookup(value.Str("nobody")); got != nil {
		t.Fatalf("lookup nobody = %v", got)
	}
	if h.Len() != 3 || h.Distinct() != 2 {
		t.Fatalf("len=%d distinct=%d", h.Len(), h.Distinct())
	}

	h.Remove(1, value.Str("fred"))
	if got := h.Lookup(value.Str("fred")); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after remove: %v", got)
	}
	// Removing an absent pair is a no-op.
	h.Remove(99, value.Str("fred"))
	if h.Len() != 2 {
		t.Fatalf("len after noop remove = %d", h.Len())
	}
	// Empty buckets disappear.
	h.Remove(3, value.Str("mary"))
	if h.Distinct() != 1 {
		t.Fatalf("distinct = %d", h.Distinct())
	}
}

// TestLookupOIDOrder: a bucket answers in OID order whatever order its
// entries were added, moved in and removed in.
func TestLookupOIDOrder(t *testing.T) {
	h := NewHash("C", "a")
	for _, id := range []oid.OID{5, 2, 9, 1, 7} {
		h.Add(id, value.Int(1))
	}
	h.Add(4, value.Int(2))
	h.Move(4, value.Int(2), value.Int(1))
	h.Remove(9, value.Int(1))
	h.Add(8, value.Int(1))
	want := []oid.OID{1, 2, 4, 5, 7, 8}
	if got := h.Lookup(value.Int(1)); !slices.Equal(got, want) {
		t.Fatalf("lookup = %v, want %v", got, want)
	}
	if got := h.Buckets()[key(value.Int(1))]; !slices.Equal(got, want) {
		t.Fatalf("bucket = %v, want %v", got, want)
	}
	if h.Len() != len(want) {
		t.Fatalf("len = %d, want %d", h.Len(), len(want))
	}
}

func TestAddIdempotent(t *testing.T) {
	h := NewHash("C", "a")
	h.Add(1, value.Int(5))
	h.Add(1, value.Int(5))
	if h.Len() != 1 {
		t.Fatalf("duplicate add counted: %d", h.Len())
	}
}

func TestMove(t *testing.T) {
	h := NewHash("C", "a")
	h.Add(1, value.Int(10))
	h.Move(1, value.Int(10), value.Int(20))
	if got := h.Lookup(value.Int(10)); got != nil {
		t.Fatalf("old value still indexed: %v", got)
	}
	if got := h.Lookup(value.Int(20)); len(got) != 1 {
		t.Fatalf("new value not indexed: %v", got)
	}
	// Move to the same key is a no-op.
	h.Move(1, value.Int(20), value.Float(20))
	if h.Len() != 1 {
		t.Fatalf("same-key move changed len: %d", h.Len())
	}
}

func TestNumericKeyUnification(t *testing.T) {
	// Int(3) and Float(3) must land in the same bucket, matching the
	// expression language's 3 == 3.0.
	h := NewHash("C", "a")
	h.Add(1, value.Int(3))
	h.Add(2, value.Float(3))
	if got := h.Lookup(value.Float(3.0)); len(got) != 2 {
		t.Fatalf("numeric unification: %v", got)
	}
	if got := h.Lookup(value.Int(3)); len(got) != 2 {
		t.Fatalf("numeric unification (int probe): %v", got)
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	h := NewHash("C", "a")
	h.Add(1, value.Int(1))
	h.Add(2, value.Int(1))
	got := h.Lookup(value.Int(1))
	got[0] = oid.OID(999)
	if again := h.Lookup(value.Int(1)); again[0] != 1 {
		t.Fatal("Lookup result aliases internal state")
	}
}

func TestBucketsCopyContents(t *testing.T) {
	h := NewHash("C", "a")
	h.Add(1, value.Int(3))
	h.Add(2, value.Float(3))
	h.Add(3, value.Str("3"))
	b := h.Buckets()
	if len(b) != 2 {
		t.Fatalf("want 2 buckets (3 and 3.0 share one), got %v", b)
	}
	for _, ids := range b {
		ids[0] = 999
	}
	if got := h.Lookup(value.Int(3)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Buckets result aliases internal state: %v", got)
	}
}

// TestEqualValuesShareABucket: values equal under value.Equal — the
// equality lookups and the core's skip of an unchanged value use — share a
// bucket, so a value rewritten to an Equal one needs no move: -0 and 0,
// and numbers inside lists by value, not kind.
func TestEqualValuesShareABucket(t *testing.T) {
	negZero := value.Float(math.Copysign(0, -1))
	pairs := [][2]value.Value{
		{value.Int(0), negZero},
		{value.Float(0), negZero},
		{value.List(value.Int(1), negZero), value.List(value.Float(1), value.Int(0))},
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("%v and %v are not Equal", p[0], p[1])
		}
		h := NewHash("C", "a")
		h.Add(1, p[0])
		if got := h.Lookup(p[1]); len(got) != 1 || got[0] != 1 {
			t.Errorf("lookup of %v after adding %v = %v", p[1], p[0], got)
		}
	}
	h := NewHash("C", "a")
	h.Add(1, value.List(value.Int(1)))
	if got := h.Lookup(value.List(value.Int(1), value.Int(1))); got != nil {
		t.Errorf("lists of different lengths share a bucket: %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	h := NewHash("Emp", "name")
	h.Add(1, value.Str("x"))
	if got := h.String(); got != "index Emp.name (1 entries, 1 distinct)" {
		t.Fatalf("String = %q", got)
	}
}
