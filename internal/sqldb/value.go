// Package sqldb is the SQLite stand-in for the data-protection case study
// (paper §VI-B, Table VI): a small in-memory SQL engine with a tokenizer,
// parser and executor supporting CREATE TABLE / INSERT / SELECT / UPDATE /
// DELETE with conjunctive WHERE clauses, and a B-tree primary-key index for
// point and range access — enough to serve the YCSB workloads the paper
// drives through its shared SQLite service.
package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Kind is a value type.
type Kind uint8

const (
	KInt Kind = iota
	KFloat
	KText
	KNull
)

// Value is one SQL scalar.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Int constructs an integer value.
func Int(i int64) Value { return Value{Kind: KInt, I: i} }

// Float constructs a float value.
func Float(f float64) Value { return Value{Kind: KFloat, F: f} }

// Text constructs a text value.
func Text(s string) Value { return Value{Kind: KText, S: s} }

// Null is the SQL NULL.
func Null() Value { return Value{Kind: KNull} }

func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KText:
		return v.S
	default:
		return "NULL"
	}
}

// Compare orders two values: ints and floats compare numerically, text
// lexically; NULL sorts first; mixed text/number comparison is an error in
// strict engines — here numbers sort before text (SQLite's affinity order).
func Compare(a, b Value) int {
	rank := func(v Value) int {
		switch v.Kind {
		case KNull:
			return 0
		case KInt, KFloat:
			return 1
		default:
			return 2
		}
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		return ra - rb
	}
	switch a.Kind {
	case KNull:
		return 0
	case KText:
		return cmp.Compare(a.S, b.S)
	}
	switch {
	case a.Kind == KInt && b.Kind == KInt:
		return cmp.Compare(a.I, b.I)
	case a.Kind == KInt:
		return compareIntFloat(a.I, b.F)
	case b.Kind == KInt:
		return -compareIntFloat(b.I, a.F)
	}
	return compareFloat(a.F, b.F)
}

// compareFloat orders two floats, a NaN equal to everything.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareIntFloat orders an int against a float exactly. Converting i to
// float64 would round it above 2^53, so distinct ints would compare equal;
// instead f's integer part, which is exact as an int64 within int64's
// range, is compared with i, and its fraction breaks a tie.
func compareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 0 // as compareFloat has it
	case f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return compareFloat(t, f)
}

// coerce converts v to the column's declared kind where lossless.
func coerce(v Value, want Kind) (Value, error) {
	if v.Kind == want || v.Kind == KNull {
		return v, nil
	}
	switch {
	case v.Kind == KInt && want == KFloat:
		return Float(float64(v.I)), nil
	case v.Kind == KFloat && want == KInt && v.F == float64(int64(v.F)):
		return Int(int64(v.F)), nil
	}
	return Value{}, fmt.Errorf("sqldb: cannot store %v value %q in %v column", v.Kind, v.String(), want)
}

func (k Kind) String() string {
	switch k {
	case KInt:
		return "INT"
	case KFloat:
		return "FLOAT"
	case KText:
		return "TEXT"
	default:
		return "NULL"
	}
}
