package row

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TInt: "BIGINT", TFloat: "DOUBLE", TString: "STRING",
		TBool: "BOOLEAN", TDate: "DATE", TNull: "NULL",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Type
	}{
		{"int", TInt}, {"BIGINT", TInt}, {"double", TFloat}, {"STRING", TString},
		{"varchar", TString}, {"boolean", TBool}, {"date", TDate},
	} {
		got, err := ParseType(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestSchemaIndex(t *testing.T) {
	s := Schema{{"a", TInt}, {"B", TString}}
	if s.Index("a") != 0 || s.Index("b") != 1 || s.Index("A") != 0 {
		t.Errorf("case-insensitive Index broken: %d %d", s.Index("a"), s.Index("b"))
	}
	if s.Index("c") != -1 {
		t.Error("missing column should be -1")
	}
	if got := s.String(); got != "(a BIGINT, B STRING)" {
		t.Errorf("String() = %q", got)
	}
	if !reflect.DeepEqual(s.Names(), []string{"a", "B"}) {
		t.Errorf("Names() = %v", s.Names())
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b any
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{int64(1), float64(1.5), -1},
		{float64(2.5), int64(2), 1},
		{float64(2), int64(2), 0},
		{"a", "b", -1},
		{"b", "b", 0},
		{false, true, -1},
		{true, true, 0},
		{nil, int64(0), -1},
		{int64(0), nil, 1},
		{nil, nil, 0},
	} {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualValuesAgree(t *testing.T) {
	// cross-numeric: int64(5) and float64(5) must hash equal since they compare equal
	if Hash(int64(5)) != Hash(float64(5)) {
		t.Error("int64(5) and float64(5.0) must hash identically")
	}
	if Hash(int64(7)) == Hash(int64(8)) {
		t.Error("unlikely collision suggests broken hashing")
	}
	// Only exact conversions must agree: float64 loses precision above 2^53.
	f := func(x int64) bool { return int64(float64(x)) != x || Hash(x) == Hash(float64(x)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashRowDiffers(t *testing.T) {
	a := Row{int64(1), "x"}
	b := Row{int64(1), "y"}
	if HashRow(a) == HashRow(b) {
		t.Error("different rows should hash differently")
	}
	if HashRow(a) != HashRow(Row{int64(1), "x"}) {
		t.Error("equal rows must hash equal")
	}
}

func TestTruth(t *testing.T) {
	if Truth(nil) || Truth(int64(1)) || Truth(false) {
		t.Error("only bool true is truthy")
	}
	if !Truth(true) {
		t.Error("true must be truthy")
	}
}

func TestCoercions(t *testing.T) {
	if f, ok := AsFloat(int64(3)); !ok || f != 3 {
		t.Error("AsFloat(int64)")
	}
	if f, ok := AsFloat(2.5); !ok || f != 2.5 {
		t.Error("AsFloat(float64)")
	}
	if _, ok := AsFloat("x"); ok {
		t.Error("AsFloat(string) must fail")
	}
	if i, ok := AsInt(2.9); !ok || i != 2 {
		t.Error("AsInt truncates")
	}
}

func TestDates(t *testing.T) {
	d, err := ParseDate("2000-01-15")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatDate(d); got != "2000-01-15" {
		t.Errorf("round trip = %q", got)
	}
	d2, _ := ParseDate("2000-01-22")
	if d2-d != 7 {
		t.Errorf("date arithmetic: %d", d2-d)
	}
	if _, err := ParseDate("garbage"); err == nil {
		t.Error("bad date should fail")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("42", TInt)
	if err != nil || v.(int64) != 42 {
		t.Errorf("ParseValue int: %v %v", v, err)
	}
	v, err = ParseValue("2.5", TFloat)
	if err != nil || v.(float64) != 2.5 {
		t.Errorf("ParseValue float: %v %v", v, err)
	}
	v, err = ParseValue("", TInt)
	if err != nil || v != nil {
		t.Errorf("empty non-string should be NULL: %v %v", v, err)
	}
	v, err = ParseValue("", TString)
	if err != nil || v.(string) != "" {
		t.Errorf("empty string stays string: %v %v", v, err)
	}
	if _, err := ParseValue("xyz", TInt); err == nil {
		t.Error("bad int must fail")
	}
}

var codecSchema = Schema{
	{"i", TInt}, {"f", TFloat}, {"s", TString}, {"b", TBool}, {"d", TDate},
}

func randomRow(rng *rand.Rand) Row {
	r := Row{
		int64(rng.Int63() - rng.Int63()),
		rng.NormFloat64() * 1e6,
		randString(rng),
		rng.Intn(2) == 0,
		int64(rng.Intn(20000)),
	}
	if rng.Intn(10) == 0 {
		r[rng.Intn(4)] = nil // only non-string fields round-trip NULL in text
		if r[2] == nil {
			r[2] = "x"
		}
	}
	return r
}

func randString(rng *rand.Rand) string {
	letters := []rune("abc|\\\nxyz 0123456789")
	n := rng.Intn(20) + 1
	out := make([]rune, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return string(out)
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r := randomRow(rng)
		enc := EncodeText(nil, r)
		dec, err := DecodeText(string(bytes.TrimSuffix(enc, []byte("\n"))), codecSchema)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		assertRowEqual(t, r, dec)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		r := randomRow(rng)
		enc := EncodeBinary(nil, r)
		dec, n, err := DecodeBinary(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode: %v (n=%d len=%d)", err, n, len(enc))
		}
		assertRowEqual(t, r, dec)
	}
}

func assertRowEqual(t *testing.T, want, got Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row length %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i] == nil && got[i] == nil {
			continue
		}
		if !Equal(want[i], got[i]) {
			t.Fatalf("field %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestStreamWriters(t *testing.T) {
	rows := []Row{
		{int64(1), 1.5, "hello|world", true, int64(10957)},
		{int64(2), -2.5, "line\ntwo", false, nil},
	}
	var tb, bb bytes.Buffer
	tw := NewTextWriter(&tb)
	bw := NewBinaryWriter(&bb)
	for _, r := range rows {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	tr := NewTextReader(&tb, codecSchema)
	br := NewBinaryReader(&bb)
	for _, want := range rows {
		got, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		assertRowEqual(t, want, got)
		got, err = br.Next()
		if err != nil {
			t.Fatal(err)
		}
		assertRowEqual(t, want, got)
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Errorf("text EOF: %v", err)
	}
	if _, err := br.Next(); err != io.EOF {
		t.Errorf("binary EOF: %v", err)
	}
}

func TestBinarySmallerThanBoxed(t *testing.T) {
	// sanity: binary encoding of a typical row is compact
	r := Row{int64(12345), 678.9, "http://example.com/page", true, int64(11000)}
	enc := EncodeBinary(nil, r)
	if len(enc) > 64 {
		t.Errorf("binary row unexpectedly large: %d bytes", len(enc))
	}
}

func TestDecodeTextErrors(t *testing.T) {
	if _, err := DecodeText("1|2|3", Schema{{"a", TInt}}); err == nil {
		t.Error("too many fields must fail")
	}
	if _, err := DecodeText("1", Schema{{"a", TInt}, {"b", TInt}}); err == nil {
		t.Error("too few fields must fail")
	}
	if _, err := DecodeText("notanint", Schema{{"a", TInt}}); err == nil {
		t.Error("bad value must fail")
	}
}

func TestTextNullSentinel(t *testing.T) {
	// String NULLs round-trip via Hive's \N sentinel and stay distinct
	// from empty strings and the literal backslash-N string.
	schema := Schema{{Name: "s", Type: TString}, {Name: "i", Type: TInt}}
	for _, r := range []Row{
		{nil, int64(1)},
		{"", int64(2)},
		{`\N`, int64(3)}, // literal two-character string
		{"x", nil},
	} {
		enc := EncodeText(nil, r)
		dec, err := DecodeText(string(bytes.TrimSuffix(enc, []byte("\n"))), schema)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		assertRowEqual(t, r, dec)
	}
}

// TestBinaryEncoderMatchesEncodeBinary: a row built field by field
// has exactly EncodeBinary's bytes (group keys made either way must be
// equal strings), the encoder's buffers are reused without leaking one
// row into the next, and a value boxed for it is not moved to the heap.
func TestBinaryEncoderMatchesEncodeBinary(t *testing.T) {
	var enc BinaryEncoder
	for _, r := range []Row{
		{int64(-42), 2.5, "née", nil, true, false},
		{},
		{nil},
		{"", int64(1) << 62, -0.0},
	} {
		enc.Reset(len(r))
		for _, v := range r {
			enc.Value(v)
		}
		if want := EncodeBinary(nil, r); !bytes.Equal(enc.Bytes(), want) {
			t.Errorf("row %v: encoder = %x, EncodeBinary = %x", r, enc.Bytes(), want)
		}
	}
	ints, strs := []int64{1 << 40, -7}, []string{"a key of some length"}
	if n := testing.AllocsPerRun(100, func() {
		enc.Reset(2)
		enc.Value(ints[0])
		enc.Value(strs[0])
		enc.Bytes()
	}); n != 0 {
		t.Errorf("encoding unboxed values allocates %.0f times", n)
	}
}

// TestEncodeBinaryInPlace: EncodeBinary builds the body behind its
// length prefix in the caller's buffer — no scratch body — so with
// capacity it allocates nothing, and on both sides of every prefix
// width (bodies around 127 | 128 and 16383 | 16384 bytes) the bytes
// equal BinaryEncoder's, which assembles prefix and body separately.
func TestEncodeBinaryInPlace(t *testing.T) {
	if got, want := EncodeBinary([]byte{0xAA}, Row{int64(-3), "ab", nil, true}),
		[]byte{0xAA, 9, 4, tagInt, 5, tagStr, 2, 'a', 'b', tagNull, tagTrue}; !bytes.Equal(got, want) {
		t.Fatalf("golden bytes: got %x, want %x", got, want)
	}
	var enc BinaryEncoder
	buf := make([]byte, 0, 1<<16)
	lens := []int{0, 1}
	for n := 120; n <= 130; n++ { // body crosses 127 | 128: prefix 1 → 2 bytes
		lens = append(lens, n)
	}
	for n := 16370; n <= 16390; n++ { // body crosses 16383 | 16384: prefix 2 → 3 bytes
		lens = append(lens, n)
	}
	prefixWidths := map[int]bool{}
	for _, n := range lens {
		r := Row{strings.Repeat("x", n)}
		enc.Reset(len(r))
		enc.Value(r[0])
		want := append([]byte("prefix"), enc.Bytes()...)
		got := EncodeBinary(append(buf[:0], "prefix"...), r)
		if !bytes.Equal(got, want) {
			t.Fatalf("string of %d bytes: in-place encoding differs from BinaryEncoder's", n)
		}
		dec, used, err := DecodeBinary(got[len("prefix"):])
		if err != nil || used != len(got)-len("prefix") {
			t.Fatalf("string of %d bytes: decode consumed %d of %d, err=%v", n, used, len(got)-len("prefix"), err)
		}
		assertRowEqual(t, r, dec)
		_, pl := binary.Uvarint(got[len("prefix"):])
		prefixWidths[pl] = true
		if allocs := testing.AllocsPerRun(20, func() { EncodeBinary(buf[:0], r) }); allocs != 0 {
			t.Errorf("string of %d bytes: EncodeBinary into spare capacity allocated %.0f times", n, allocs)
		}
	}
	if !prefixWidths[1] || !prefixWidths[2] || !prefixWidths[3] {
		t.Fatalf("prefix widths exercised: %v, want 1, 2 and 3 bytes", prefixWidths)
	}
	wide := Row{int64(1) << 40, 3.5, "a string field", nil, false, int64(-7)}
	if allocs := testing.AllocsPerRun(100, func() { EncodeBinary(buf[:0], wide) }); allocs != 0 {
		t.Errorf("EncodeBinary into spare capacity allocated %.0f times per row", allocs)
	}
}

// TestHashUnboxed pins HashInt, HashFloat and HashString to Hash of the
// boxed value: partial aggregates are bucketed by the first three and
// shuffle.HashPartitioner buckets by the last, so a key must land in
// one bucket whichever hashed it.
func TestHashUnboxed(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 255, 256, 1 << 53, math.MinInt64, math.MaxInt64} {
		if HashInt(x) != Hash(x) {
			t.Errorf("HashInt(%d) != Hash", x)
		}
	}
	negZero := math.Copysign(0, -1)
	for _, x := range []float64{0, negZero, 1, -3, 2.5, 1e300, 4.9e-324, 0x1p63, -0x1p63, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if HashFloat(x) != Hash(x) {
			t.Errorf("HashFloat(%v) != Hash", x)
		}
	}
	if HashFloat(negZero) != HashInt(0) || HashFloat(-3) != HashInt(-3) {
		t.Error("an integral float must hash like the equal integer")
	}
	for _, s := range []string{"", "a", "\x00null\x00", strings.Repeat("xyz", 100)} {
		if HashString(s) != Hash(s) {
			t.Errorf("HashString(%q) != Hash", s)
		}
	}
}
