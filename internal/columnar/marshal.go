package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"shark/internal/row"
)

// PartitionTag is the DiskMarshaler tag of a sealed partition; the
// matching decoder is registered by the memtable package (the producer
// of columnar cache partitions).
const PartitionTag = "columnar.Partition"

// MarshalShuffle flattens the partition into one scalar row — schema,
// row count, then per column its statistics and one blob holding its
// sealed encoding verbatim (the layout is in the package comment) —
// implementing the shuffle package's DiskMarshaler structurally. This
// is what lets a cached columnar partition cross a disk boundary:
// disk-mode shuffles and the block stores' spill tier both serialize
// engine values through it.
func (p *Partition) MarshalShuffle() (string, row.Row) {
	fields := make(row.Row, 0, 2+2*len(p.Schema)+5*len(p.Cols))
	fields = append(fields, int64(len(p.Schema)))
	for _, f := range p.Schema {
		fields = append(fields, f.Name, int64(f.Type))
	}
	fields = append(fields, int64(p.N))
	x := &BlobCodec{n: p.N, out: make([]byte, 0, p.SizeBytes()+int64(16*len(p.Cols)))}
	ends := make([]int, len(p.Cols))
	for c, col := range p.Cols {
		at := len(x.out)
		x.out = append(x.out, 0)
		x.Bitmap(col.(encoded).nullMap())
		x.out[at] = col.(encoded).blob(x)
		ends[c] = len(x.out)
	}
	blobs, start := string(x.out), 0
	for c, st := range p.Stats {
		d := int64(len(st.Distinct))
		if st.Distinct == nil {
			d = -1
		}
		fields = append(append(fields, st.Min, st.Max, st.NullCount, d), st.Distinct...)
		fields = append(fields, blobs[start:ends[c]])
		start = ends[c]
	}
	return PartitionTag, fields
}

// UnmarshalPartition inverts MarshalShuffle: each column comes back as
// the encoding it was sealed with, straight from its blob — no Builder,
// no re-seal. Every count is checked against the bytes (or fields) left
// before it sizes an allocation, and every code, offset and run end
// against what it indexes, so a malformed row is an error, never a
// panic or a partition that panics when read.
func UnmarshalPartition(fields row.Row) (*Partition, error) {
	r := &fieldReader{f: fields}
	ncols := take[int64](r)
	if r.bad || ncols < 0 || ncols > int64(len(r.f))/2 {
		return nil, malformed(fields)
	}
	p := &Partition{Schema: make(row.Schema, ncols), Cols: make([]Column, ncols), Stats: make([]ColumnStats, ncols)}
	for c := range p.Schema {
		name, typ := take[string](r), take[int64](r)
		if typ < int64(row.TNull) || typ > int64(row.TDate) {
			r.bad = true
		}
		p.Schema[c] = row.Field{Name: name, Type: row.Type(typ)}
	}
	n := take[int64](r)
	if r.bad || n < 0 || n > math.MaxUint32 {
		return nil, malformed(fields)
	}
	p.N = int(n)
	for c, f := range p.Schema {
		st := &p.Stats[c]
		st.Min, st.Max, st.NullCount = r.value(f.Type), r.value(f.Type), take[int64](r)
		if nd := take[int64](r); nd >= 0 && nd <= maxDistinctTracked && nd <= int64(len(r.f)) {
			st.Distinct = make([]any, nd)
			for i := range st.Distinct {
				if st.Distinct[i] = r.value(f.Type); st.Distinct[i] == nil {
					r.bad = true
				}
			}
		} else if nd != -1 {
			r.bad = true
		}
		blob := take[string](r)
		if r.bad || st.NullCount < 0 || st.NullCount > n {
			return nil, malformed(fields)
		}
		col, err := decodeColumn(f.Type, p.N, blob)
		if err != nil {
			return nil, fmt.Errorf("columnar: marshalled column %d (%s %v): %w", c, f.Name, f.Type, err)
		}
		p.Cols[c] = col
	}
	if len(r.f) != 0 {
		return nil, malformed(fields)
	}
	return p, nil
}

// fieldReader takes a marshalled partition's fields in order; a
// missing or mistyped field sets bad.
type fieldReader struct {
	f   row.Row
	bad bool
}

// take returns the next field as a T.
func take[T any](r *fieldReader) T {
	var v T
	ok := len(r.f) > 0
	if ok {
		v, ok = r.f[0].(T)
		r.f = r.f[1:]
	}
	r.bad = r.bad || !ok
	return v
}

// value takes a statistic: NULL, or a value of the column's type (a
// mistyped one would panic the pruning that compares it).
func (r *fieldReader) value(t row.Type) any {
	if len(r.f) == 0 {
		r.bad = true
		return nil
	}
	v := r.f[0]
	r.f = r.f[1:]
	switch v.(type) {
	case nil:
	case int64, float64, string, bool:
		r.bad = r.bad || row.TypeOf(v) != storedAs(t)
	default:
		r.bad = true
	}
	return v
}

func malformed(fields row.Row) error {
	return fmt.Errorf("columnar: malformed marshalled partition (%d fields)", len(fields))
}

// storedAs is the value type a column of type t holds: int64 for every
// type but DOUBLE, STRING and BOOLEAN.
func storedAs(t row.Type) row.Type {
	switch t {
	case row.TFloat, row.TString, row.TBool:
		return t
	}
	return row.TInt
}

// Blob encoding tags.
const (
	encRawInt = 1 + iota
	encRLEInt
	encPackedInt
	encDictInt
	encRawFloat
	encRLEFloat
	encRawString
	encDictString
	encBitmap
	encValues // a boxed vector's cells: vector blobs only
)

// encodings lists, by blob tag, the value type each encoding stores and
// an empty n-row column of it, of type t, for a blob to fill.
var encodings = [...]struct {
	stores row.Type
	empty  func(t row.Type, n int) encoded
}{
	encRawInt:     {row.TInt, func(t row.Type, n int) encoded { return &rawInt64{intKind: intKind{t}} }},
	encRLEInt:     {row.TInt, func(t row.Type, n int) encoded { return &rleInt64{intKind: intKind{t}, n: n} }},
	encPackedInt:  {row.TInt, func(t row.Type, n int) encoded { return &packedInt64{intKind: intKind{t}, n: n} }},
	encDictInt:    {row.TInt, func(t row.Type, n int) encoded { return &dictInt64{intKind: intKind{t}, n: n} }},
	encRawFloat:   {row.TFloat, func(row.Type, int) encoded { return &rawFloat64{} }},
	encRLEFloat:   {row.TFloat, func(_ row.Type, n int) encoded { return &rleFloat64{n: n} }},
	encRawString:  {row.TString, func(row.Type, int) encoded { return &rawString{} }},
	encDictString: {row.TString, func(_ row.Type, n int) encoded { return &dictString{n: n} }},
	encBitmap:     {row.TBool, func(_ row.Type, n int) encoded { return &boolColumn{n: n} }},
}

// encoded is a sealed column as the spill codec sees it: a NULL bitmap
// and a blob.
type encoded interface {
	Column
	nullMap() *Bitmap
	// blob moves the encoding's fields through x, in blob order, and
	// returns its tag.
	blob(x *BlobCodec) byte
}

// decodeColumn rebuilds one n-row column of type t from its blob.
func decodeColumn(t row.Type, n int, blob string) (Column, error) {
	x := &BlobCodec{n: n, read: true, in: bytesOf(blob)}
	var tag byte
	x.U8(&tag)
	if int(tag) >= len(encodings) || encodings[tag].empty == nil || encodings[tag].stores != storedAs(t) {
		return nil, fmt.Errorf("encoding tag %d", tag)
	}
	col := encodings[tag].empty(t, n)
	x.Bitmap(col.nullMap())
	col.blob(x)
	if x.bad || len(x.in) != 0 {
		return nil, fmt.Errorf("malformed %s blob (%d bytes)", col.Encoding(), len(blob))
	}
	return col, nil
}

func (c *rawInt64) blob(x *BlobCodec) byte   { Fixed(x, &c.v, x.n); return encRawInt }
func (c *rleInt64) blob(x *BlobCodec) byte   { runs(x, &c.vals, &c.ends); return encRLEInt }
func (c *rawFloat64) blob(x *BlobCodec) byte { Fixed(x, &c.v, x.n); return encRawFloat }
func (c *rleFloat64) blob(x *BlobCodec) byte { runs(x, &c.vals, &c.ends); return encRLEFloat }
func (c *rawString) blob(x *BlobCodec) byte  { x.texts(&c.offsets, &c.data, x.n); return encRawString }
func (c *boolColumn) blob(x *BlobCodec) byte {
	Fixed(x, (*[]uint64)(&c.bitsv), (x.n+63)/64)
	return encBitmap
}

func (c *packedInt64) blob(x *BlobCodec) byte {
	base := []int64{c.base}
	Fixed(x, &base, 1)
	if x.read && !x.bad {
		c.base = base[0]
	}
	x.packed(&c.words, &c.width, 0)
	return encPackedInt
}

func (c *dictInt64) blob(x *BlobCodec) byte {
	d := x.entries(len(c.dict))
	Fixed(x, &c.dict, d)
	x.packed(&c.words, &c.width, d)
	if x.read {
		c.boxed = boxAll(c.dict)
	}
	return encDictInt
}

func (c *dictString) blob(x *BlobCodec) byte {
	d := x.entries(len(c.dict))
	if !x.read {
		x.putStrs(d, func(i int) string { return c.dict[i] })
	} else if c.dict = strs(x, d, str); !x.bad {
		c.boxed = boxAll(c.dict)
	}
	x.packed(&c.words, &c.width, d)
	return encDictString
}

// BlobCodec writes a column blob (out), or reads one back (in): each
// encoding lists its fields once, in its blob method, for both. A read
// that does not fit what is left sets bad and leaves its field empty,
// so a decoder checks once, at the end; every count is checked against
// the bytes left before it sizes an allocation. Other engine values
// that cross a disk boundary as typed vectors describe themselves with
// it the same way.
type BlobCodec struct {
	n    int // the column's rows
	read bool
	in   []byte
	out  []byte
	bad  bool
}

// NewBlobWriter starts a blob for vectors of n rows.
func NewBlobWriter(n int) *BlobCodec { return &BlobCodec{n: n} }

// NewBlobReader reads back a blob of vectors of n rows.
func NewBlobReader(n int, blob string) *BlobCodec {
	return &BlobCodec{n: n, read: true, in: bytesOf(blob)}
}

// Reading reports whether x reads a blob (rather than writing one).
func (x *BlobCodec) Reading() bool { return x.read }

// Check fails a read whose value is outside the model, and reports
// whether the read is still good.
func (x *BlobCodec) Check(ok bool) bool {
	x.bad = x.bad || !ok
	return !x.bad
}

// Blob returns what a writer wrote.
func (x *BlobCodec) Blob() string { return string(x.out) }

// Done reports whether a read fit its blob exactly, every check passing.
func (x *BlobCodec) Done() bool { return !x.bad && len(x.in) == 0 }

// Fixed moves *v: n little-endian values.
func Fixed[T int64 | uint64 | uint32 | float64](x *BlobCodec, v *[]T, n int) {
	if !x.read {
		x.out, _ = binary.Append(x.out, binary.LittleEndian, *v)
		return
	}
	size := binary.Size(T(0))
	if x.bad || n < 0 || n > len(x.in)/size {
		x.bad = true
		return
	}
	*v = make([]T, n)
	binary.Decode(x.in[:n*size], binary.LittleEndian, *v)
	x.in = x.in[n*size:]
}

// U8 moves one byte.
func (x *BlobCodec) U8(v *byte) {
	switch {
	case !x.read:
		x.out = append(x.out, *v)
	case len(x.in) == 0:
		x.bad = true
	default:
		*v, x.in = x.in[0], x.in[1:]
	}
}

// Bitmap moves an n-bit bitmap that may be nil: a 0 byte for nil, or a
// 1 byte and its ⌈n/64⌉ words.
func (x *BlobCodec) Bitmap(b *Bitmap) {
	var has byte
	if *b != nil {
		has = 1
	}
	x.U8(&has)
	if has == 1 {
		Fixed(x, (*[]uint64)(b), (x.n+63)/64)
	}
	x.bad = x.bad || has > 1
}

// entries moves a dictionary's size, 1 to dictionaryThreshold.
func (x *BlobCodec) entries(d int) int {
	v := []uint32{uint32(d)}
	Fixed(x, &v, 1)
	if x.bad || v[0] < 1 || v[0] > dictionaryThreshold {
		x.bad = true
		return 0
	}
	return int(v[0])
}

// packed moves n lanes of width (1 to 64) bits: the width, then the
// words. With d > 0 the lanes are dictionary codes, each below d.
func (x *BlobCodec) packed(words *[]uint64, width *uint, d int) {
	w := byte(*width)
	x.U8(&w)
	if x.bad || w < 1 || w > 64 {
		x.bad = true
		return
	}
	if x.read {
		*width = uint(w)
	}
	Fixed(x, words, (x.n*int(w)+63)/64)
	for i := 0; x.read && d > 0 && !x.bad && i < x.n; i++ {
		x.bad = unpack(*words, uint(i), *width) >= uint64(d)
	}
}

// runs moves an RLE column: the run count, the run values, and the
// cumulative run ends, which rise strictly to n.
func runs[T int64 | float64](x *BlobCodec, vals *[]T, ends *[]uint32) {
	r := []uint32{uint32(len(*vals))}
	Fixed(x, &r, 1)
	Fixed(x, vals, int(r[0]))
	Fixed(x, ends, int(r[0]))
	var last uint32
	for _, e := range *ends {
		x.bad = x.bad || e <= last
		last = e
	}
	x.bad = x.bad || int(last) != x.n
}

// texts moves k strings: k+1 offsets rising from 0, then the bytes
// they index (copied out of the blob when read).
func (x *BlobCodec) texts(offsets *[]uint32, data *string, k int) {
	Fixed(x, offsets, k+1)
	if x.bad {
		return
	}
	o := *offsets
	x.bad = o[0] != 0 || int(o[k]) > len(x.in) && x.read
	for i := 1; i <= k; i++ {
		x.bad = x.bad || o[i] < o[i-1]
	}
	switch {
	case !x.read:
		x.out = append(x.out, *data...)
	case !x.bad:
		*data, x.in = string(x.in[:o[k]]), x.in[o[k]:]
	}
}

// Values moves k row values as one binary row. A read must hold exactly
// k values, encoded as EncodeBinary encodes them.
func (x *BlobCodec) Values(v *[]any, k int) {
	if !x.read {
		x.out = row.EncodeBinary(x.out, *v)
		return
	}
	if x.bad {
		return
	}
	r, used, err := row.DecodeBinary(x.in)
	if err != nil || len(r) != k || !bytes.Equal(row.EncodeBinary(nil, r), x.in[:used]) {
		x.bad = true
		return
	}
	*v, x.in = r, x.in[used:]
}
