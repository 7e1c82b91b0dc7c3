package columnar

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"shark/internal/row"
)

func TestPartitionMarshalRoundTrip(t *testing.T) {
	schema := row.Schema{
		{Name: "id", Type: row.TInt},
		{Name: "name", Type: row.TString},
		{Name: "score", Type: row.TFloat},
		{Name: "ok", Type: row.TBool},
		{Name: "day", Type: row.TDate},
	}
	b := NewBuilder(schema)
	rows := []row.Row{
		{int64(1), "alpha", 1.5, true, int64(100)},
		{int64(2), "beta", -2.25, false, int64(200)},
		{nil, "alpha", nil, true, nil},
		{int64(4), "", 0.0, false, int64(100)},
	}
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	p := b.Seal()
	tag, fields := p.MarshalShuffle()
	if tag != PartitionTag {
		t.Fatalf("tag = %q", tag)
	}
	q, err := UnmarshalPartition(fields)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != p.N || !reflect.DeepEqual(q.Schema, p.Schema) {
		t.Fatalf("shape differs: N=%d/%d", q.N, p.N)
	}
	for i := 0; i < p.N; i++ {
		if !reflect.DeepEqual(q.Row(i), p.Row(i)) {
			t.Errorf("row %d: got %v want %v", i, q.Row(i), p.Row(i))
		}
	}
}

// blob assembles a column blob: bytes as they are, uint32s, and
// int64s / uint64s as eight little-endian bytes.
func blob(parts ...any) string {
	var b []byte
	for _, p := range parts {
		switch x := p.(type) {
		case byte:
			b = append(b, x)
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, x)
		case int64:
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, x)
		case string:
			b = append(b, x...)
		}
	}
	return string(b)
}

// oneColumn is the marshalled form of an n-row partition of one column
// of type t, with no statistics.
func oneColumn(t row.Type, n int64, blob string) row.Row {
	return row.Row{int64(1), "c", int64(t), n, nil, nil, int64(0), int64(-1), blob}
}

func TestUnmarshalPartitionRejectsGarbage(t *testing.T) {
	// Four rows: a three-entry dictionary with codes 0 1 2 1 in 2-bit
	// lanes, and two runs ending at rows 2 and 4.
	dict := func(codes uint64) string {
		return blob(byte(encDictInt), byte(0), uint32(3), int64(10), int64(20), int64(30), byte(2), codes)
	}
	rle := func(end1, end2 uint32) string {
		return blob(byte(encRLEInt), byte(0), uint32(2), int64(7), int64(8), end1, end2)
	}
	packed := func(width byte) string { return blob(byte(encPackedInt), byte(0), int64(-5), width, uint64(0)) }
	for _, ok := range []row.Row{
		oneColumn(row.TInt, 4, dict(0|1<<2|2<<4|1<<6)),
		oneColumn(row.TInt, 4, rle(2, 4)),
		oneColumn(row.TInt, 4, packed(16)),
	} {
		if _, err := UnmarshalPartition(ok); err != nil {
			t.Fatalf("well-formed %v: %v", ok, err)
		}
	}
	valid := oneColumn(row.TInt, 4, rle(2, 4))
	truncated := oneColumn(row.TInt, 4, valid[8].(string)[:len(valid[8].(string))-1])
	for name, fields := range map[string]row.Row{
		"empty":                 nil,
		"no columns":            {int64(3)},
		"not a count":           {"not-a-count"},
		"column count 2^62":     {int64(1 << 62)},
		"row count 2^62":        {int64(1), "c", int64(row.TInt), int64(1 << 62)},
		"negative rows":         {int64(1), "c", int64(row.TInt), int64(-1)},
		"unknown type":          oneColumn(row.Type(99), 4, rle(2, 4)),
		"truncated blob":        truncated,
		"trailing blob bytes":   oneColumn(row.TInt, 4, rle(2, 4)+"x"),
		"trailing field":        append(append(row.Row{}, valid...), int64(0)),
		"code = dictionary":     oneColumn(row.TInt, 4, dict(3)),
		"code past dictionary":  oneColumn(row.TInt, 4, dict(0|1<<2|2<<4|3<<6)),
		"empty dictionary":      oneColumn(row.TInt, 0, blob(byte(encDictInt), byte(0), uint32(0), byte(1))),
		"ends not increasing":   oneColumn(row.TInt, 4, rle(2, 2)),
		"ends decreasing":       oneColumn(row.TInt, 4, rle(3, 2)),
		"ends short of N":       oneColumn(row.TInt, 4, rle(2, 3)),
		"ends past N":           oneColumn(row.TInt, 4, rle(2, 5)),
		"bit width 0":           oneColumn(row.TInt, 4, packed(0)),
		"bit width 65":          oneColumn(row.TInt, 4, packed(65)),
		"unknown encoding tag":  oneColumn(row.TInt, 4, blob(byte(99), byte(0))),
		"tag 0":                 oneColumn(row.TInt, 0, blob(byte(0), byte(0))),
		"float blob, int type":  oneColumn(row.TInt, 1, blob(byte(encRawFloat), byte(0), int64(1))),
		"null flag 2":           oneColumn(row.TInt, 1, blob(byte(encRawInt), byte(2), int64(1))),
		"run count 2^32-1":      oneColumn(row.TInt, 4, blob(byte(encRLEInt), byte(0), uint32(1<<32-1))),
		"offsets past data":     oneColumn(row.TString, 1, blob(byte(encRawString), byte(0), uint32(0), uint32(9), "ab")),
		"offsets not from 0":    oneColumn(row.TString, 1, blob(byte(encRawString), byte(0), uint32(1), uint32(2), "ab")),
		"mistyped min":          {int64(1), "c", int64(row.TInt), int64(4), "min", nil, int64(0), int64(-1), rle(2, 4)},
		"distinct count 2^40":   {int64(1), "c", int64(row.TInt), int64(4), nil, nil, int64(0), int64(1 << 40), rle(2, 4)},
		"NULL distinct value":   {int64(1), "c", int64(row.TInt), int64(4), nil, nil, int64(0), int64(1), nil, rle(2, 4)},
		"null count past N":     {int64(1), "c", int64(row.TInt), int64(4), nil, nil, int64(5), int64(-1), rle(2, 4)},
		"out-of-model field":    {int64(1), "c", int64(row.TInt), int64(4), int(3), nil, int64(0), int64(-1), rle(2, 4)},
		"wrong row count field": {int64(1), "col", int64(row.TInt), int64(2), int64(5)},
	} {
		if _, err := UnmarshalPartition(fields); err == nil {
			t.Errorf("%s: malformed fields %v decoded", name, fields)
		}
	}
}

// FuzzUnmarshalPartition: no marshalled bytes may panic the decoder,
// make it allocate beyond a small multiple of their size, or slip
// through as a partition that does not re-marshal to the same fields —
// compared as encoded bytes, so NaN cells count as equal to themselves.
// The corpus holds one partition per encoding and the hostile shapes of
// TestUnmarshalPartitionRejectsGarbage.
func FuzzUnmarshalPartition(f *testing.F) {
	p, _ := allEncodings(f, 300)
	_, fields := p.MarshalShuffle()
	f.Add(row.EncodeBinary(nil, fields))
	for c := range p.Cols {
		col := &Partition{Schema: p.Schema[c : c+1], Cols: p.Cols[c : c+1], Stats: p.Stats[c : c+1], N: p.N}
		_, one := col.MarshalShuffle()
		f.Add(row.EncodeBinary(nil, one))
	}
	f.Add(row.EncodeBinary(nil, row.Row{int64(1 << 62)}))
	f.Add(row.EncodeBinary(nil, oneColumn(row.TInt, 4, blob(byte(encRLEInt), byte(0), uint32(2), int64(7), int64(8), uint32(2), uint32(5)))))
	f.Add(row.EncodeBinary(nil, oneColumn(row.TInt, 4, blob(byte(encDictInt), byte(0), uint32(3), int64(10), int64(20), int64(30), byte(2), uint64(3)))))
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, _, err := row.DecodeBinary(data)
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := UnmarshalPartition(fields)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 48*uint64(len(data))+8<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		_, again := q.MarshalShuffle()
		if !bytes.Equal(row.EncodeBinary(nil, again), row.EncodeBinary(nil, fields)) {
			t.Fatalf("re-marshalling changed the fields:\n%v\n%v", fields, again)
		}
		if q.N > 1<<14 {
			return // a run-length column of 2^32 rows is legal, and slow to read back
		}
		b := NewBatch(q)
		for b.Next() {
			for c := range q.Cols {
				b.Rows([]int{c}, b.All())
			}
		}
	})
}
