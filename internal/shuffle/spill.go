// Spill codec: the one byte format for a value that leaves memory.
// The cluster's disk tier parks block-store values in local files
// with it, and a disk-mode shuffle writes each bucket file as the
// []Pair block the memory bucket would spill as. Values are framed by
// row.EncodeBinary through valueToRow / rowToValue, and with them the
// DiskMarshaler hook that engine values like columnar partitions and
// partial-aggregate blocks implement.
package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"

	"shark/internal/cluster"
	"shark/internal/row"
)

func init() { cluster.RegisterSpillCodec(sparkSpillCodec{}) }

// Spill block layouts, selected by the first byte:
//
//	'P' — a []Pair (a shuffle bucket, spilled or disk-mode): varint count, then
//	      per pair the key as a one-field binary row and the value
//	      through valueToRow.
//	'S' — a []any (a materialized RDD cache partition): varint count,
//	      then per element a kind byte — 'p' for a Pair (key row +
//	      value row), 'v' for anything valueToRow handles.
const (
	spillPairs = 'P'
	spillSlice = 'S'
	elemPair   = 'p'
	elemValue  = 'v'
)

type sparkSpillCodec struct{}

// EncodeSpill implements cluster.SpillCodec. Unsupported value types
// (including unsupported element types inside a []any — EncodeBinary
// panics on them) report an error, which the disk tier treats as
// "unspillable": the block is dropped like a plain eviction.
func (sparkSpillCodec) EncodeSpill(v any) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("shuffle: spill encode: %v", r)
		}
	}()
	switch x := v.(type) {
	case []Pair:
		out = append(out, spillPairs)
		out = binary.AppendUvarint(out, uint64(len(x)))
		for _, p := range x {
			out = row.EncodeBinary(out, row.Row{p.K})
			out = row.EncodeBinary(out, valueToRow(p.V))
		}
		return out, nil
	case []any:
		out = append(out, spillSlice)
		out = binary.AppendUvarint(out, uint64(len(x)))
		for _, e := range x {
			if p, ok := e.(Pair); ok {
				out = append(out, elemPair)
				out = row.EncodeBinary(out, row.Row{p.K})
				out = row.EncodeBinary(out, valueToRow(p.V))
				continue
			}
			out = append(out, elemValue)
			out = row.EncodeBinary(out, valueToRow(e))
		}
		return out, nil
	}
	return nil, fmt.Errorf("shuffle: unspillable block type %T", v)
}

// DecodeSpill implements cluster.SpillCodec.
func (sparkSpillCodec) DecodeSpill(data []byte) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("shuffle: spill decode: %v", r)
		}
	}()
	if len(data) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	kind, data := data[0], data[1:]
	n, hl := binary.Uvarint(data)
	if hl <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	data = data[hl:]
	// Every element costs at least one encoded byte, so the element
	// count can never exceed the remaining payload: bound it before
	// the capacity reservations below, the same hostile-count rule
	// the wire codec follows.
	if n > uint64(len(data)) {
		return nil, io.ErrUnexpectedEOF
	}
	next := func() (row.Row, error) {
		r, used, err := row.DecodeBinary(data)
		if err != nil {
			return nil, err
		}
		data = data[used:]
		return r, nil
	}
	switch kind {
	case spillPairs:
		pairs := make([]Pair, 0, n)
		for i := uint64(0); i < n; i++ {
			k, err := next()
			if err != nil {
				return nil, err
			}
			v, err := next()
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, Pair{K: k[0], V: rowToValue(v)})
		}
		return pairs, nil
	case spillSlice:
		elems := make([]any, 0, n)
		for i := uint64(0); i < n; i++ {
			if len(data) == 0 {
				return nil, io.ErrUnexpectedEOF
			}
			ek := data[0]
			data = data[1:]
			switch ek {
			case elemPair:
				k, err := next()
				if err != nil {
					return nil, err
				}
				v, err := next()
				if err != nil {
					return nil, err
				}
				elems = append(elems, Pair{K: k[0], V: rowToValue(v)})
			case elemValue:
				r, err := next()
				if err != nil {
					return nil, err
				}
				elems = append(elems, rowToValue(r))
			default:
				return nil, fmt.Errorf("shuffle: bad spill element kind %q", ek)
			}
		}
		return elems, nil
	}
	return nil, fmt.Errorf("shuffle: bad spill block kind %q", kind)
}
