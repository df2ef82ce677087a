// Package object implements instances of runtime classes: an OID, a class
// pointer, and one value slot per attribute in the class layout.
//
// Objects here are the in-memory representation; the storage layer persists
// them via Encode/Decode and the transaction layer snapshots them via
// CopyFields for before-image rollback.
package object

import (
	"fmt"

	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/value"
)

// Object is an instance of a runtime class.
type Object struct {
	id     oid.OID
	class  *schema.Class
	fields []value.Value
	// version counts committed writes; used by the buffer/catalog layers to
	// cheaply detect staleness.
	version uint64
}

// New creates an instance of class c with all attributes set to their
// declared defaults. It returns an error for abstract or unfinalized
// classes.
func New(id oid.OID, c *schema.Class) (*Object, error) {
	if !c.Finalized() {
		return nil, fmt.Errorf("object: class %s is not finalized", c.Name)
	}
	if c.Abstract {
		return nil, fmt.Errorf("object: class %s is abstract", c.Name)
	}
	fields := make([]value.Value, c.NumSlots())
	for _, a := range c.Layout() {
		fields[a.Slot()] = a.InitialValue()
	}
	return &Object{id: id, class: c, fields: fields}, nil
}

// ID returns the object's OID.
func (o *Object) ID() oid.OID { return o.id }

// Class returns the object's dynamic class.
func (o *Object) Class() *schema.Class { return o.class }

// Version returns the commit version counter.
func (o *Object) Version() uint64 { return o.version }

// BumpVersion increments the commit version; called by the transaction
// layer on commit of a write.
func (o *Object) BumpVersion() { o.version++ }

// Get returns the value of the named attribute. The caller is responsible
// for visibility checks (the core runtime performs them with knowledge of
// the calling class).
func (o *Object) Get(attr string) (value.Value, error) {
	a := o.class.AttributeNamed(attr)
	if a == nil {
		return value.Nil, fmt.Errorf("object: class %s has no attribute %q", o.class.Name, attr)
	}
	return o.fields[a.Slot()], nil
}

// Set assigns the named attribute after a kind check against its declared
// type (ints widen into float slots).
func (o *Object) Set(attr string, v value.Value) error {
	a := o.class.AttributeNamed(attr)
	if a == nil {
		return fmt.Errorf("object: class %s has no attribute %q", o.class.Name, attr)
	}
	if !a.Type.Accepts(v.Kind()) {
		return fmt.Errorf("object: %s.%s: want %s, got %s", o.class.Name, attr, a.Type, v.Kind())
	}
	o.fields[a.Slot()] = a.Type.Widen(v)
	return nil
}

// GetSlot reads a field by slot index (no checks); for the interpreter's
// fast path.
func (o *Object) GetSlot(i int) value.Value { return o.fields[i] }

// SetSlot writes a field by slot index (no checks).
func (o *Object) SetSlot(i int, v value.Value) { o.fields[i] = v }

// CopyFields returns a snapshot of the field array, used as a transaction
// before-image.
func (o *Object) CopyFields() []value.Value {
	return append([]value.Value(nil), o.fields...)
}

// RestoreFields overwrites the fields from a snapshot taken with
// CopyFields; used on transaction abort.
func (o *Object) RestoreFields(snap []value.Value) {
	copy(o.fields, snap)
}

// Clone returns a private copy of the object: same identity, class and
// version, freshly copied fields. The MVCC snapshot-read path clones the
// committed resident image so readers never share a field array with
// in-place writers.
func (o *Object) Clone() *Object {
	return &Object{id: o.id, class: o.class, fields: o.CopyFields(), version: o.version}
}

// Materialize builds an object directly from a class and a field snapshot —
// the MVCC read path reconstructing an archived version from a directory
// version chain. The fields are copied; no default initialization or
// abstract-class checks run, because the snapshot came from a previously
// valid committed image.
func Materialize(id oid.OID, c *schema.Class, fields []value.Value) *Object {
	return &Object{id: id, class: c, fields: append([]value.Value(nil), fields...)}
}

// String renders the object with its class and public attributes.
func (o *Object) String() string {
	s := fmt.Sprintf("%s(%s){", o.class.Name, o.id)
	first := true
	for _, a := range o.class.Layout() {
		if a.Visibility != schema.Public {
			continue
		}
		if !first {
			s += ", "
		}
		first = false
		s += a.Name + ": " + o.fields[a.Slot()].String()
	}
	return s + "}"
}

// Encode serializes the object's state (class name + field values) for the
// storage layer.
func (o *Object) Encode(buf []byte) []byte {
	buf = value.AppendValue(buf, value.Str(o.class.Name))
	buf = value.AppendValue(buf, value.Int(int64(len(o.fields))))
	for _, f := range o.fields {
		buf = value.AppendValue(buf, f)
	}
	return buf
}

// Decode materializes an object from bytes produced by Encode, resolving
// the class through the registry. A schema mismatch (fewer/more persisted
// fields than the current layout) is tolerated by truncating or
// zero-filling, which gives primitive schema evolution.
func Decode(id oid.OID, buf []byte, reg *schema.Registry) (*Object, error) {
	clsV, buf, err := value.DecodeValue(buf)
	if err != nil {
		return nil, fmt.Errorf("object: decode class name: %w", err)
	}
	clsName, ok := clsV.AsString()
	if !ok {
		return nil, fmt.Errorf("object: decode: malformed header")
	}
	c := reg.Lookup(clsName)
	if c == nil {
		return nil, fmt.Errorf("object: decode: unknown class %q", clsName)
	}
	nV, buf, err := value.DecodeValue(buf)
	if err != nil {
		return nil, fmt.Errorf("object: decode field count: %w", err)
	}
	n, _ := nV.AsInt()
	o, err := New(id, c)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < n; i++ {
		var f value.Value
		f, buf, err = value.DecodeValue(buf)
		if err != nil {
			return nil, fmt.Errorf("object: decode field %d: %w", i, err)
		}
		if int(i) < len(o.fields) {
			o.fields[int(i)] = f
		}
	}
	return o, nil
}

// PeekClass reads just the class name from an encoded image, without a
// registry or a full decode. Core hands it to heap.Open as the reader that
// fills the object table's classes on recovery redo and page-scan rebuilds.
func PeekClass(buf []byte) (string, error) {
	v, _, err := value.DecodeValue(buf)
	if err != nil {
		return "", fmt.Errorf("object: peek class: %w", err)
	}
	s, ok := v.AsString()
	if !ok {
		return "", fmt.Errorf("object: peek class: malformed header")
	}
	return s, nil
}
