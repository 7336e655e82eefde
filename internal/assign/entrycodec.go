package assign

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"parmem/internal/alloccache"
	"parmem/internal/duplication"
)

// Binary codecs for the two memo levels, registered with alloccache so
// a byte backing (the disk tier) can hold engine entries. The encoding is
// hand-rolled varints rather than JSON because ModSet is a full uint64
// bitmask — module 63 sets bit 63, which a JSON number cannot carry — and
// because decode must be able to reject any malformed input outright.
//
// Every payload leads with a per-type format byte; bumping an encoding
// bumps its byte, and old payloads then decode to an error (a cache miss)
// instead of a misread. Decoders reproduce CloneEntry's shape exactly:
// slices are nil when empty, maps are always non-nil. That keeps a
// disk-tier hit bit-identical to recomputation under reflect.DeepEqual.

// Format bytes. 0x01 and 0x03 belonged to the retired dup and atomcolor
// levels; they are not reused.
const (
	codecAlloc = 0x02
	codecComp  = 0x04
)

func init() {
	alloccache.RegisterCodec("assign", alloccache.Codec{
		Encode: encodeAllocEntry, Decode: decodeAllocEntry,
	})
	alloccache.RegisterCodec("comp", alloccache.Codec{
		Encode: encodeCompEntry, Decode: decodeCompEntry,
	})
}

// --- primitive writers ---

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func putVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func putString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putInts(b []byte, xs []int) []byte {
	b = putUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = putVarint(b, int64(x))
	}
	return b
}

// putCopies emits a copy table in sorted-key order so equal tables encode
// to equal bytes.
func putCopies(b []byte, c duplication.Copies) []byte {
	keys := make([]int, 0, len(c))
	for v := range c {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	b = putUvarint(b, uint64(len(keys)))
	for _, v := range keys {
		b = putVarint(b, int64(v))
		b = putUvarint(b, uint64(c[v]))
	}
	return b
}

// --- primitive reader ---

// byteReader walks an encoded payload, latching the first error. Every
// read after a failure returns zero values, so decoders can read the full
// shape and check err once at the end.
type byteReader struct {
	b   []byte
	err error
}

func (r *byteReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("entrycodec: malformed %s", what)
	}
}

func (r *byteReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *byteReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *byteReader) intval(what string) int { return int(r.varint(what)) }

func (r *byteReader) boolval(what string) bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail(what)
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

func (r *byteReader) stringval(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// count validates an element count against the bytes remaining (each
// element costs at least one byte), so a corrupted length cannot force a
// giant allocation before the decode fails.
func (r *byteReader) count(what string) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return 0
	}
	return int(n)
}

// ints mirrors CloneEntry's append([]int(nil), ...): nil when empty.
func (r *byteReader) ints(what string) []int {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.intval(what)
	}
	if r.err != nil {
		return nil
	}
	return xs
}

// copies mirrors Copies.Clone: always a non-nil map.
func (r *byteReader) copies(what string) duplication.Copies {
	n := r.count(what)
	c := make(duplication.Copies, n)
	for i := 0; i < n && r.err == nil; i++ {
		v := r.intval(what)
		c[v] = duplication.ModSet(r.uvarint(what))
	}
	return c
}

// done rejects both latched errors and trailing garbage.
func (r *byteReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("entrycodec: %d trailing bytes in %s", len(r.b), what)
	}
	return nil
}

func newReader(data []byte, format byte, what string) (*byteReader, error) {
	if len(data) == 0 || data[0] != format {
		return nil, fmt.Errorf("entrycodec: bad %s format byte", what)
	}
	return &byteReader{b: data[1:]}, nil
}

// --- assign level ---

func encodeAllocEntry(e alloccache.Entry) ([]byte, error) {
	a, ok := e.(*allocEntry)
	if !ok {
		return nil, fmt.Errorf("entrycodec: assign level got %T", e)
	}
	al := a.al
	b := []byte{codecAlloc}
	b = putCopies(b, al.Copies)
	b = putInts(b, al.Unassigned)
	b = putInts(b, al.Forced)
	b = putVarint(b, int64(al.SingleCopy))
	b = putVarint(b, int64(al.MultiCopy))
	b = putVarint(b, int64(al.TotalCopies))
	b = putVarint(b, int64(al.Atoms))
	b = putBool(b, al.Degraded)
	b = putUvarint(b, uint64(len(al.Phases)))
	for _, p := range al.Phases {
		b = putString(b, p.Phase)
		b = putString(b, p.Method)
		b = putVarint(b, p.Nodes)
		b = putVarint(b, int64(p.Elapsed))
		b = putString(b, p.Fallback)
		b = putBool(b, p.Cached)
	}
	return b, nil
}

func decodeAllocEntry(data []byte) (alloccache.Entry, error) {
	r, err := newReader(data, codecAlloc, "assign")
	if err != nil {
		return nil, err
	}
	var al Allocation
	al.Copies = r.copies("assign copies")
	al.Unassigned = r.ints("assign unassigned")
	al.Forced = r.ints("assign forced")
	al.SingleCopy = r.intval("assign singleCopy")
	al.MultiCopy = r.intval("assign multiCopy")
	al.TotalCopies = r.intval("assign totalCopies")
	al.Atoms = r.intval("assign atoms")
	al.Degraded = r.boolval("assign degraded")
	n := r.count("assign phases")
	if r.err == nil && n > 0 {
		al.Phases = make([]PhaseReport, n)
		for i := range al.Phases {
			al.Phases[i] = PhaseReport{
				Phase:    r.stringval("phase name"),
				Method:   r.stringval("phase method"),
				Nodes:    r.varint("phase nodes"),
				Elapsed:  time.Duration(r.varint("phase elapsed")),
				Fallback: r.stringval("phase fallback"),
				Cached:   r.boolval("phase cached"),
			}
		}
	}
	if err := r.done("assign"); err != nil {
		return nil, err
	}
	return &allocEntry{al: al}, nil
}

// --- comp level ---

// The comp key already spells out the component's instructions (and with
// them its values), so an entry carries only what the solve produced.

func encodeCompEntry(e alloccache.Entry) ([]byte, error) {
	c, ok := e.(*compEntry)
	if !ok {
		return nil, fmt.Errorf("entrycodec: comp level got %T", e)
	}
	b := []byte{codecComp}
	b = putCopies(b, c.copies)
	b = putInts(b, c.unassigned)
	b = putVarint(b, int64(c.atoms))
	return b, nil
}

func decodeCompEntry(data []byte) (alloccache.Entry, error) {
	r, err := newReader(data, codecComp, "comp")
	if err != nil {
		return nil, err
	}
	c := &compEntry{
		copies:     r.copies("comp copies"),
		unassigned: r.ints("comp unassigned"),
		atoms:      r.intval("comp atoms"),
	}
	if err := r.done("comp"); err != nil {
		return nil, err
	}
	return c, nil
}
