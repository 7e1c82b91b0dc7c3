package columnar

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"shark/internal/row"
)

// Vec moves rows [lo, lo+n) of *v (a full vector, Mask -1), n the
// codec's rows, as one column blob in the partition layout (the package
// comment gives it byte for byte). The tag follows from the vector
// alone: raw ints, raw floats, a dictionary string of the entries the
// rows use when v holds codes and any of them is not NULL, raw strings
// otherwise, and a boxed vector's cells through Values. Writing only
// reads v. Read back, *v is a vector of its own (Mask -1, Owned) that
// shares nothing with the blob, and a blob the writer would not have
// written exactly so is refused, so a vector always writes back to the
// bytes it was read from.
func (x *BlobCodec) Vec(v *Vec, lo int) {
	if x.read {
		x.readVec(v)
		return
	}
	hi := lo + x.n
	tag := byte(encValues)
	switch {
	case v.Kind == VecInt:
		tag = encRawInt
	case v.Kind == VecFloat:
		tag = encRawFloat
	case v.Kind == VecStr && v.Dict != nil && !v.allNull(lo, hi):
		tag = encDictString
	case v.Kind == VecStr:
		tag = encRawString
	}
	x.out = append(x.out, tag)
	x.nulls(v, lo, hi)
	switch tag {
	case encRawInt:
		x.out, _ = binary.Append(x.out, binary.LittleEndian, v.Ints[lo:hi])
	case encRawFloat:
		x.out, _ = binary.Append(x.out, binary.LittleEndian, v.Floats[lo:hi])
	case encRawString:
		x.putStrs(x.n, func(i int) string { return v.Str(int32(lo + i)) })
	case encDictString:
		x.putDict(v, lo, hi)
	default:
		x.out = row.EncodeBinary(x.out, v.Anys[lo:hi])
	}
}

// allNull reports whether every row in [lo, hi) is NULL.
func (v *Vec) allNull(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if !v.Null(int32(i)) {
			return false
		}
	}
	return true
}

// any reports whether a bit in [lo, hi) is set.
func (b Bitmap) any(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if b.Has(i) {
			return true
		}
	}
	return false
}

// nulls writes the NULL bitmap of rows [lo, hi) as Bitmap moves one:
// none when no row is NULL.
func (x *BlobCodec) nulls(v *Vec, lo, hi int) {
	some := false
	for i := lo; i < hi && !some && (v.Kind == VecAny || len(v.Nulls) > 0); i++ {
		some = v.Null(int32(i))
	}
	if !some {
		x.out = append(x.out, 0)
		return
	}
	x.out = append(x.out, 1)
	for from := lo; from < hi; from += 64 {
		var w uint64
		for i := from; i < min(from+64, hi); i++ {
			if v.Null(int32(i)) {
				w |= 1 << (i - from)
			}
		}
		x.out = binary.LittleEndian.AppendUint64(x.out, w)
	}
}

// putDict writes rows [lo, hi) of a dictionary vector: the entries
// they use, numbered in order of first use, then their codes in the
// fewest bits that hold them, a NULL row's as 0.
func (x *BlobCodec) putDict(v *Vec, lo, hi int) {
	var code [256]uint16 // a code's number + 1; 0 until used
	var entries [256]uint8
	d := 0
	for i := lo; i < hi; i++ {
		if c := v.Codes[i]; code[c] == 0 && !v.Nulls.Has(i) {
			entries[d] = c
			d++
			code[c] = uint16(d)
		}
	}
	x.out = binary.LittleEndian.AppendUint32(x.out, uint32(d))
	x.putStrs(d, func(i int) string { return v.Dict.DictValue(int(entries[i])).(string) })
	width := widthFor(uint64(d - 1))
	x.out = append(x.out, byte(width))
	var word uint64
	var used uint
	for i := lo; i < hi; i++ {
		var lane uint64
		if !v.Nulls.Has(i) {
			lane = uint64(code[v.Codes[i]] - 1)
		}
		word |= lane << used
		if used += width; used >= 64 {
			x.out = binary.LittleEndian.AppendUint64(x.out, word)
			used -= 64
			word = lane >> (width - used) // 0 when the lane ended the word
		}
	}
	if used > 0 {
		x.out = binary.LittleEndian.AppendUint64(x.out, word)
	}
}

// putStrs writes k strings: k+1 u32 offsets rising from 0, then their
// bytes.
func (x *BlobCodec) putStrs(k int, at func(i int) string) {
	var end uint32
	x.out = binary.LittleEndian.AppendUint32(x.out, 0)
	for i := range k {
		end += uint32(len(at(i)))
		x.out = binary.LittleEndian.AppendUint32(x.out, end)
	}
	for i := range k {
		x.out = append(x.out, at(i)...)
	}
}

// strs reads what putStrs writes: the bytes are copied out of the
// blob once, and to makes each T of a string sharing that copy.
func strs[T any](x *BlobCodec, k int, to func(string) T) []T {
	if x.bad || k < 0 || k >= len(x.in)/4 {
		x.bad = true
		return nil
	}
	offsets, data := x.in[:4*(k+1)], x.in[4*(k+1):]
	at := func(i int) uint32 { return binary.LittleEndian.Uint32(offsets[4*i:]) }
	end := at(k)
	x.bad = at(0) != 0 || int64(end) > int64(len(data))
	for i := 1; i <= k && !x.bad; i++ {
		x.bad = at(i) < at(i-1)
	}
	if x.bad {
		return nil
	}
	s, out := string(data[:end]), make([]T, k)
	for i := range out {
		out[i] = to(s[at(i):at(i+1)])
	}
	x.in = data[end:]
	return out
}

func str(s string) string { return s }

// readVec reads a vector blob of x.n rows into *v.
func (x *BlobCodec) readVec(v *Vec) {
	var tag byte
	x.U8(&tag)
	*v = Vec{Mask: -1, Owned: true}
	x.Bitmap(&v.Nulls)
	if v.Nulls != nil && !x.Check(v.Nulls.any(0, x.n) && !v.Nulls.any(x.n, 64*len(v.Nulls))) {
		return // a bitmap with no NULL, or a bit past the rows: not written so
	}
	switch tag {
	case encRawInt:
		v.Kind = VecInt
		Fixed(x, &v.Ints, x.n)
	case encRawFloat:
		v.Kind = VecFloat
		Fixed(x, &v.Floats, x.n)
	case encRawString:
		v.Kind, v.Strs = VecStr, strs(x, x.n, str)
	case encDictString:
		v.Kind = VecStr
		x.readDict(v)
	case encValues:
		x.Values(&v.Anys, x.n)
		nulls := v.Nulls
		for i, a := range v.Anys {
			x.Check((a == nil) == nulls.Has(i))
		}
	default:
		x.bad = true
	}
}

// readDict reads what putDict writes, the entries only boxed (a vector
// reads nothing else of its dictionary). It refuses entries out of
// order of first use, an entry no row uses, a width wider than the
// entries need, and a NULL row's code other than 0.
func (x *BlobCodec) readDict(v *Vec) {
	d := x.entries(0)
	dict := &dictString{boxed: strs(x, d, func(s string) any { return s })}
	var words []uint64
	var width uint
	x.packed(&words, &width, d)
	if !x.Check(width == widthFor(uint64(d-1))) {
		return
	}
	v.Codes = make([]uint8, x.n)
	next := uint64(0)
	for i := range v.Codes {
		c := unpack(words, uint(i), width)
		if v.Nulls.Has(i) {
			x.Check(c == 0)
		} else if x.Check(c <= next) && c == next {
			next++
		}
		v.Codes[i] = uint8(c)
	}
	if x.Check(next == uint64(d)) {
		v.Dict = dict
	}
}

// AppendVec appends the blob of rows [lo, lo+n) of v to buf.
func AppendVec(buf []byte, v *Vec, lo, n int) []byte {
	x := BlobCodec{n: n, out: buf}
	x.Vec(v, lo)
	return x.out
}

// ReadVec reads an n-row vector blob back.
func ReadVec(blob []byte, n int) (Vec, error) {
	x := BlobCodec{n: n, read: true, in: blob}
	var v Vec
	if x.Vec(&v, 0); !x.Done() {
		return Vec{}, fmt.Errorf("columnar: malformed %d-row vector blob (%d bytes)", n, len(blob))
	}
	return v, nil
}

// bytesOf views s's bytes without copying them, for a reader, which
// never writes to its input.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }
