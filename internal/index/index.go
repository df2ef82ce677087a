// Package index implements in-memory secondary indexes over object
// attributes: equality lookups from an attribute value to the OIDs of
// instances holding it.
//
// Indexes are declared per (class, attribute) and cover subclass instances.
// The core runtime maintains them on every attribute write, object
// creation and deletion (with undo hooks for aborted transactions), and
// persists their definitions as catalog objects so they are rebuilt on
// open. The motivating claim is the paper's §1 framing of reactive
// capability as "a unifying paradigm for handling a number of database
// features" — derived data kept consistent by the system reacting to
// changes.
package index

import (
	"fmt"
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
	buckets map[string][]oid.OID // encoded value -> OIDs (insertion order)
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

// key canonicalizes a value for bucketing. Numeric values bucket by their
// float64 representation so Int(3) and Float(3) collide, matching the
// expression language's equality.
func key(v value.Value) string {
	if f, ok := v.Numeric(); ok {
		return string(value.AppendValue([]byte{'n'}, value.Float(f)))
	}
	return string(value.AppendValue(nil, v))
}

// Add indexes id under v.
func (h *Hash) Add(id oid.OID, v value.Value) {
	k := key(v)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, x := range h.buckets[k] {
		if x == id {
			return
		}
	}
	h.buckets[k] = append(h.buckets[k], id)
	h.entries++
}

// Remove drops id from v's bucket (no-op when absent).
func (h *Hash) Remove(id oid.OID, v value.Value) {
	k := key(v)
	h.mu.Lock()
	defer h.mu.Unlock()
	lst := h.buckets[k]
	for i, x := range lst {
		if x == id {
			h.buckets[k] = append(lst[:i:i], lst[i+1:]...)
			h.entries--
			if len(h.buckets[k]) == 0 {
				delete(h.buckets, k)
			}
			return
		}
	}
}

// Move reindexes id from old to new value.
func (h *Hash) Move(id oid.OID, oldV, newV value.Value) {
	if key(oldV) == key(newV) {
		return
	}
	h.Remove(id, oldV)
	h.Add(id, newV)
}

// Lookup returns the OIDs currently indexed under v (a copy, in insertion
// order).
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
// canonical bucket key, with its OIDs in insertion order.
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
