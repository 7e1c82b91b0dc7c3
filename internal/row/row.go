// Package row defines the value model shared by every layer of the
// engine: typed scalar values, rows, schemas, and the comparison,
// hashing and formatting rules over them.
//
// Values are carried as `any` holding exactly one of:
//
//	nil (SQL NULL), int64, float64, string, bool
//
// DATE values are stored as int64 days since the Unix epoch and are
// distinguished only by the schema's field type, mirroring Hive's
// storage of dates as primitive ints.
package row

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the column types supported by the engine.
type Type int

const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
	TDate // int64 days since Unix epoch
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "BIGINT"
	case TFloat:
		return "DOUBLE"
	case TString:
		return "STRING"
	case TBool:
		return "BOOLEAN"
	case TDate:
		return "DATE"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType maps a SQL type name to a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "BIGINT", "INTEGER", "LONG", "SMALLINT", "TINYINT":
		return TInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL":
		return TFloat, nil
	case "STRING", "VARCHAR", "CHAR", "TEXT":
		return TString, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	case "DATE", "TIMESTAMP":
		return TDate, nil
	}
	return TNull, fmt.Errorf("row: unknown type %q", s)
}

// Numeric reports whether the type participates in arithmetic.
func (t Type) Numeric() bool { return t == TInt || t == TFloat || t == TDate }

// Field is a named, typed column.
type Field struct {
	Name string
	Type Type
}

// Schema describes the columns of a row. Column names are matched
// case-insensitively, as in HiveQL.
type Schema []Field

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// String renders the schema as "(a BIGINT, b STRING)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is one tuple. Elements obey the package value model.
type Row []any

// Clone returns a copy of the row (values are immutable, so a shallow
// element copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// OwnString returns v, with a string value copied into memory of its
// own. Inside a scan task strings are sub-strings of a whole cached
// column's bytes; whatever outlives the task (a group's values, a
// result row) copies them so as not to keep the column reachable.
func OwnString(v any) any {
	if s, ok := v.(string); ok {
		return strings.Clone(s)
	}
	return v
}

// TypeOf returns the runtime Type of a value.
func TypeOf(v any) Type {
	switch v.(type) {
	case nil:
		return TNull
	case int64:
		return TInt
	case float64:
		return TFloat
	case string:
		return TString
	case bool:
		return TBool
	}
	panic(fmt.Sprintf("row: value %v (%T) outside value model", v, v))
}

// Compare orders two values. NULL sorts first; numeric values compare
// across int64/float64; bools order false < true. Comparing values of
// incompatible kinds panics — the analyzer guarantees it cannot happen
// in planned queries.
func Compare(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		case float64:
			return cmpFloat(float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return cmpFloat(x, float64(y))
		case float64:
			return cmpFloat(x, y)
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case !x && y:
				return -1
			case x && !y:
				return 1
			}
			return 0
		}
	}
	panic(fmt.Sprintf("row: cannot compare %T with %T", a, b))
}

func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// Equal reports value equality under Compare semantics, with NULL equal
// only to NULL (group-by semantics, not SQL ternary logic).
func Equal(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return Compare(a, b) == 0
}

var hashSeed = maphash.MakeSeed()

// Hash returns a stable-for-the-process hash of a value. Integral
// floats hash like the equal int64 so cross-numeric equality is
// consistent with Compare.
func Hash(v any) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	writeHash(&h, v)
	return h.Sum64()
}

// HashRow hashes all values of a row together.
func HashRow(r Row) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for _, v := range r {
		writeHash(&h, v)
	}
	return h.Sum64()
}

func writeHash(h *maphash.Hash, v any) {
	switch x := v.(type) {
	case nil:
		h.WriteByte(0)
	case int64:
		h.WriteByte(1)
		writeUint64(h, uint64(x))
	case float64:
		if x == math.Trunc(x) && x >= math.MinInt64 && x <= math.MaxInt64 {
			// hash like the equal integer
			h.WriteByte(1)
			writeUint64(h, uint64(int64(x)))
			return
		}
		h.WriteByte(2)
		writeUint64(h, math.Float64bits(x))
	case string:
		h.WriteByte(3)
		h.WriteString(x)
	case bool:
		if x {
			h.WriteByte(5)
		} else {
			h.WriteByte(4)
		}
	default:
		panic(fmt.Sprintf("row: cannot hash %T", v))
	}
}

func writeUint64(h *maphash.Hash, u uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
}

// Truth converts a value to a boolean predicate result. NULL is false.
func Truth(v any) bool {
	b, ok := v.(bool)
	return ok && b
}

// AsFloat coerces a numeric value to float64.
func AsFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// AsInt coerces a numeric value to int64 (floats truncate).
func AsInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		return int64(x), true
	}
	return 0, false
}

// FormatValue renders a value for output. NULL renders as "NULL".
func FormatValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	}
	return fmt.Sprintf("%v", v)
}

// FormatDate renders an epoch-day int64 as YYYY-MM-DD.
func FormatDate(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// ParseDate parses YYYY-MM-DD into epoch days.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("row: bad date %q: %w", s, err)
	}
	return t.Unix() / 86400, nil
}

// ParseValue parses the text form of a value with the given type.
// Empty string parses to NULL for non-string types.
func ParseValue(s string, t Type) (any, error) {
	if s == "" && t != TString {
		return nil, nil
	}
	switch t {
	case TInt:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("row: bad int %q: %w", s, err)
		}
		return v, nil
	case TFloat:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("row: bad float %q: %w", s, err)
		}
		return v, nil
	case TString:
		return s, nil
	case TBool:
		v, err := strconv.ParseBool(s)
		if err != nil {
			return nil, fmt.Errorf("row: bad bool %q: %w", s, err)
		}
		return v, nil
	case TDate:
		// Accept both the epoch-day integer form (what the codecs
		// emit) and the human YYYY-MM-DD form (what generators and
		// SQL literals use).
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v, nil
		}
		return ParseDate(s)
	case TNull:
		return nil, nil
	}
	return nil, fmt.Errorf("row: cannot parse type %v", t)
}
