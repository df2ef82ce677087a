// Package index implements in-memory secondary indexes over object
// attributes: equality lookups from an attribute value to the OIDs of
// instances holding it.
//
// Indexes are declared per (class, attribute) and cover subclass instances.
// The core runtime keeps them at committed state: a commit moves the
// entries of the objects it created, wrote and deleted as it installs, an
// aborted transaction never reaches one, and definitions persist as catalog
// objects so indexes are rebuilt on open. The motivating claim is the paper's §1 framing of reactive
// capability as "a unifying paradigm for handling a number of database
// features" — derived data kept consistent by the system reacting to
// changes.
package index

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// Hash is an equality index on one attribute of one class (including its
// subclasses). It is safe for concurrent use.
type Hash struct {
	class string
	attr  string

	mu      sync.RWMutex
	buckets map[string][]oid.OID // encoded value -> OIDs (sorted)
	entries int
}

// NewHash creates an empty index for class.attr.
func NewHash(class, attr string) *Hash {
	return &Hash{class: class, attr: attr, buckets: make(map[string][]oid.OID)}
}

// Class returns the indexed class name.
func (h *Hash) Class() string { return h.class }

// Attr returns the indexed attribute name.
func (h *Hash) Attr() string { return h.attr }

// Len returns the number of indexed objects.
func (h *Hash) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.entries
}

// key canonicalizes a value for bucketing, so values equal under
// value.Equal — the expression language's equality — share a bucket:
// numbers, in lists too, bucket by their float64 representation, so Int(3)
// and Float(3) collide, and -0 folds into 0.
func key(v value.Value) string {
	var buf [32]byte
	return string(appendKey(buf[:0], v))
}

func appendKey(b []byte, v value.Value) []byte {
	if f, ok := v.Numeric(); ok {
		return value.AppendValue(append(b, 'n'), value.Float(f+0))
	}
	if elems, ok := v.AsList(); ok {
		b = binary.AppendUvarint(append(b, 'l'), uint64(len(elems)))
		for _, e := range elems {
			b = appendKey(b, e)
		}
		return b
	}
	return value.AppendValue(b, v)
}

// Add indexes id under v.
func (h *Hash) Add(id oid.OID, v value.Value) {
	k := key(v)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addLocked(id, k)
}

func (h *Hash) addLocked(id oid.OID, k string) {
	lst := h.buckets[k]
	i, found := slices.BinarySearch(lst, id)
	if found {
		return
	}
	h.buckets[k] = slices.Insert(lst, i, id)
	h.entries++
}

// Remove drops id from v's bucket (no-op when absent).
func (h *Hash) Remove(id oid.OID, v value.Value) {
	k := key(v)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.removeLocked(id, k)
}

func (h *Hash) removeLocked(id oid.OID, k string) {
	lst := h.buckets[k]
	i, found := slices.BinarySearch(lst, id)
	if !found {
		return
	}
	h.entries--
	if len(lst) == 1 {
		delete(h.buckets, k)
		return
	}
	h.buckets[k] = slices.Delete(lst, i, i+1)
}

// Move reindexes id from old to new value, in one critical section.
func (h *Hash) Move(id oid.OID, oldV, newV value.Value) {
	ko, kn := key(oldV), key(newV)
	if ko == kn {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.removeLocked(id, ko)
	h.addLocked(id, kn)
}

// Lookup returns the OIDs currently indexed under v (a copy, in OID order:
// the answer depends on which objects hold v, not on the order they were
// indexed in).
func (h *Hash) Lookup(v value.Value) []oid.OID {
	k := key(v)
	h.mu.RLock()
	defer h.mu.RUnlock()
	lst := h.buckets[k]
	if len(lst) == 0 {
		return nil
	}
	return append([]oid.OID(nil), lst...)
}

// Buckets returns a copy of the contents: each distinct indexed value, by its
// canonical bucket key, with its OIDs in OID order.
func (h *Hash) Buckets() map[string][]oid.OID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[string][]oid.OID, len(h.buckets))
	for k, ids := range h.buckets {
		out[k] = append([]oid.OID(nil), ids...)
	}
	return out
}

// Distinct returns the number of distinct indexed values.
func (h *Hash) Distinct() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.buckets)
}

// String renders "index Class.attr (n entries, m distinct)".
func (h *Hash) String() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return fmt.Sprintf("index %s.%s (%d entries, %d distinct)", h.class, h.attr, h.entries, len(h.buckets))
}
