package row

import (
	"math"
	"reflect"
	"testing"
)

// textCase is one line of the text format's edge cases and what it
// decodes to (nil want: an error).
type textCase struct {
	schema Schema
	line   string
	want   Row
}

var (
	strInt  = Schema{{"s", TString}, {"i", TInt}}
	allText = Schema{{"i", TInt}, {"f", TFloat}, {"s", TString}, {"b", TBool}, {"d", TDate}}
)

var textCases = []textCase{
	{strInt, `a\pb|5`, Row{"a|b", int64(5)}},
	{strInt, `a\|b|5`, Row{"a|b", int64(5)}},
	{strInt, `a\\b|1`, Row{`a\b`, int64(1)}},
	{strInt, `a\nb|1`, Row{"a\nb", int64(1)}},
	{strInt, `\N|\N`, Row{nil, nil}},
	{strInt, `\\N|1`, Row{`\N`, int64(1)}},
	{strInt, `\\N|\\N`, nil}, // an escaped \N is no NULL, and no int
	{strInt, `|`, Row{"", nil}},
	{strInt, `a|1\`, nil}, // a trailing lone backslash swallows the field end
	{strInt, `a\`, nil},
	{strInt, `a|1|2`, nil},
	{strInt, `a`, nil},
	{strInt, ``, nil},
	{strInt, `a|x`, nil},
	{strInt, `a|1.5`, nil},
	{strInt, `a|99999999999999999999`, nil},
	{allText, `1|2.5|s|true|10957`, Row{int64(1), 2.5, "s", true, int64(10957)}},
	{allText, `-1|-0|\p|false|2000-01-01`, Row{int64(-1), math.Copysign(0, -1), "|", false, int64(10957)}},
	{allText, `||||`, Row{nil, nil, "", nil, nil}},
	{allText, `1|NaN||1|-3`, Row{int64(1), math.NaN(), "", true, int64(-3)}},
	{allText, `1|+Inf||T|1970-01-02`, Row{int64(1), math.Inf(1), "", true, int64(1)}},
	{allText, `1|abc|||`, nil},
	{allText, `1||||maybe`, nil},
	{allText, `1|||maybe|`, nil},
	{allText, `1||||2000-13-01`, nil},
	{allText, `1||||2000-1-1`, nil},
	{allText, `1||||`, Row{int64(1), nil, "", nil, nil}},
}

// sameRow compares rows cell by cell, floats by bits (NaN equals
// itself, -0 does not equal 0).
func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, xf := a[i].(float64)
		y, yf := b[i].(float64)
		if xf || yf {
			if !xf || !yf || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		} else if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestDecodeTextEdgeCases(t *testing.T) {
	for _, c := range textCases {
		got, err := DecodeText(c.line, c.schema)
		if (err != nil) != (c.want == nil) || err == nil && !sameRow(got, c.want) {
			t.Errorf("DecodeText(%q) = %v, %v; want %v", c.line, got, err, c.want)
		}
	}
}

// recordSink is a TextSink over []byte lines that keeps the last row,
// by sink column, and counts rows.
type recordSink struct {
	r    Row
	rows int
}

func (s *recordSink) AppendNull(c int)             { s.r[c] = nil }
func (s *recordSink) AppendInt(c int, v int64)     { s.r[c] = v }
func (s *recordSink) AppendFloat(c int, v float64) { s.r[c] = v }
func (s *recordSink) AppendBool(c int, v bool)     { s.r[c] = v }
func (s *recordSink) AppendString(c int, v []byte) { s.r[c] = string(v) }
func (s *recordSink) EndRow()                      { s.rows++ }

// every lists all of the schema's positions.
func every(s Schema) []int {
	cols := make([]int, len(s))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// checkTokenizer: tokenizing the line's bytes for every field fails
// exactly when DecodeText does and otherwise yields its row; asked for
// a subset of the fields in another order, it yields those cells of
// that row.
func checkTokenizer(t *testing.T, schema Schema, line string) {
	want, wantErr := DecodeText(line, schema)
	all := &recordSink{r: make(Row, len(schema))}
	err := TokenizeText(NewTextTokenizer(schema, every(schema)), []byte(line), TextSink[[]byte](all))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: tokenizer error %v, DecodeText error %v", line, err, wantErr)
	}
	if err != nil {
		if all.rows != 0 {
			t.Fatalf("%q: a failed line ended a row", line)
		}
		return
	}
	if all.rows != 1 || !sameRow(all.r, want) {
		t.Fatalf("%q: tokenizer %v (%d rows), DecodeText %v", line, all.r, all.rows, want)
	}
	var cols []int
	for c := len(schema) - 1; c >= 0; c -= 2 {
		cols = append(cols, c)
	}
	some := &recordSink{r: make(Row, len(cols))}
	if err := TokenizeText(NewTextTokenizer(schema, cols), []byte(line), TextSink[[]byte](some)); err != nil {
		t.Fatalf("%q: fields %v: %v", line, cols, err)
	}
	for j, c := range cols {
		if !sameRow(Row{some.r[j]}, Row{want[c]}) {
			t.Fatalf("%q: field %d is %v, DecodeText %v", line, c, some.r[j], want[c])
		}
	}
}

func TestTokenizerMatchesDecodeText(t *testing.T) {
	for _, c := range textCases {
		checkTokenizer(t, c.schema, c.line)
	}
}

// The tokenizer allocates nothing for a line without escapes into a
// sink that keeps nothing.
func TestTokenizerAllocs(t *testing.T) {
	tok := NewTextTokenizer(allText, every(allText))
	line := []byte(`123456|2.5|some text|true|10957`)
	var discard TextSink[[]byte] = discardSink{}
	if n := testing.AllocsPerRun(100, func() {
		if err := TokenizeText(tok, line, discard); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("tokenizing a line allocated %v times", n)
	}
}

type discardSink struct{}

func (discardSink) AppendNull(int)           {}
func (discardSink) AppendInt(int, int64)     {}
func (discardSink) AppendFloat(int, float64) {}
func (discardSink) AppendBool(int, bool)     {}
func (discardSink) AppendString(int, []byte) {}
func (discardSink) EndRow()                  {}

// FuzzTokenizeText: kinds picks a schema (one field per byte, up to
// eight); the tokenizer over the line's bytes must fail exactly when
// DecodeText fails and otherwise yield the same values.
func FuzzTokenizeText(f *testing.F) {
	kindsOf := func(s Schema) []byte {
		out := make([]byte, len(s))
		for i, fl := range s {
			out[i] = byte(fl.Type)
		}
		return out
	}
	for _, c := range textCases {
		f.Add(kindsOf(c.schema), c.line)
	}
	f.Add([]byte{byte(TString)}, "a\\")
	f.Add([]byte{byte(TDate), byte(TDate)}, "10957|2000-02-29")
	f.Fuzz(func(t *testing.T, kinds []byte, line string) {
		if len(kinds) == 0 || len(kinds) > 8 {
			return
		}
		schema := make(Schema, len(kinds))
		for i, k := range kinds {
			schema[i] = Field{Name: "c", Type: Type(k % 6)}
		}
		checkTokenizer(t, schema, line)
	})
}
