package shuffle

import (
	"encoding/binary"
	"errors"
	"os"
	"slices"
	"testing"

	"shark/internal/row"
)

// A spill block whose element count exceeds the remaining payload must
// fail fast instead of reserving capacity for the claimed count.
func TestDecodeSpillHostileCount(t *testing.T) {
	for _, kind := range []byte{spillPairs, spillSlice} {
		data := append([]byte{kind}, binary.AppendUvarint(nil, 1<<40)...)
		if _, err := (sparkSpillCodec{}).DecodeSpill(data); err == nil {
			t.Fatalf("kind %q: hostile element count decoded without error", kind)
		}
	}
}

// A disk-mode bucket file is the spill codec's []Pair block, and one
// that does not decode as such — valid rows in the wrong shape, cut
// short, a hostile row length, a block of another kind — is a lost map
// output: Fetch names the map partition that wrote it in a FetchError,
// so the scheduler re-runs that task, instead of panicking or
// allocating what a length prefix claims.
func TestDiskBucketMalformedIsLostOutput(t *testing.T) {
	wrongShape := append([]byte{spillPairs}, binary.AppendUvarint(nil, 1)...)
	wrongShape = row.EncodeBinary(wrongShape, row.Row{int64(1)})
	wrongShape = row.EncodeBinary(wrongShape, row.Row{int64(2)}) // no value-kind tag
	hostile := append([]byte{spillPairs, 1}, binary.AppendUvarint(nil, uint64(row.MaxBinaryRowBytes)+1)...)
	notPairs, err := sparkSpillCodec{}.EncodeSpill([]any{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		spoil func([]byte) []byte
	}{
		{"wrong-shape", func([]byte) []byte { return wrongShape }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"hostile-length", func([]byte) []byte { return hostile }},
		{"not-pairs", func([]byte) []byte { return notPairs }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, svc := newEnv(t, Disk)
			id := svc.NewShuffleID()
			locs := writeMapOutputs(t, c, svc, id, 2, 1, 10)
			v, _ := c.Worker(locs[1]).Store().Get(blockKey(id, 1, 0))
			path := v.(string)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			block, err := sparkSpillCodec{}.DecodeSpill(data)
			if pairs, ok := block.([]Pair); err != nil || !ok || len(pairs) != 10 {
				t.Fatalf("bucket file decodes to %T (%v), want the 10 pairs the map task wrote", block, err)
			}
			if err := os.WriteFile(path, tc.spoil(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = svc.Fetch(id, 0, locs)
			var fe *FetchError
			if !errors.As(err, &fe) || !slices.Equal(fe.MapParts, []int{1}) {
				t.Fatalf("Fetch err = %v, want a FetchError for map partition 1", err)
			}
		})
	}
}
