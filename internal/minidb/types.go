// Package minidb is an embedded relational engine: typed schemas, heap
// tables, a volcano-style iterator executor (scan, project, filter,
// limit) and a small expression language. It stands in for the MySQL
// instance behind the paper's OGSA-DAI service; the workloads of the
// evaluation are inexpensive scan-project queries, which minidb executes
// natively.
package minidb

import (
	"fmt"
	"strconv"
)

// Type enumerates the column types the engine supports.
type Type int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a double-precision column (used for decimals such as
	// account balances and order totals).
	Float64
	// String is a variable-length text column.
	String
	// Date is a calendar date stored as days since 1970-01-01.
	Date
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int64:
		return "INT64"
	case Float64:
		return "FLOAT64"
	case String:
		return "STRING"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Value is a dynamically typed cell. Exactly one representation is
// meaningful, selected by Kind. The zero value is not a NULL: it is the
// non-NULL INT64 0, which a column of another type rejects. Null builds
// a NULL.
type Value struct {
	Kind Type
	Null bool
	I    int64   // Int64 and Date (days since epoch)
	F    float64 // Float64
	S    string  // String
}

// NewInt builds an Int64 value.
func NewInt(v int64) Value { return Value{Kind: Int64, I: v} }

// NewFloat builds a Float64 value.
func NewFloat(v float64) Value { return Value{Kind: Float64, F: v} }

// NewString builds a String value.
func NewString(v string) Value { return Value{Kind: String, S: v} }

// NewDate builds a Date value from days since 1970-01-01.
func NewDate(days int64) Value { return Value{Kind: Date, I: days} }

// Null builds a NULL of the given type.
func Null(t Type) Value { return Value{Kind: t, Null: true} }

// String renders the value for wire encoding and debugging.
func (v Value) String() string {
	if v.Null {
		return ""
	}
	switch v.Kind {
	case Int64, Date:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case String:
		return v.S
	default:
		return ""
	}
}

// ParseValue parses the wire representation s back into a value of type t.
// The empty string decodes as NULL, mirroring Value.String.
func ParseValue(t Type, s string) (Value, error) {
	if s == "" {
		return Null(t), nil
	}
	switch t {
	case Int64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("minidb: bad INT64 %q: %w", s, err)
		}
		return NewInt(i), nil
	case Date:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("minidb: bad DATE %q: %w", s, err)
		}
		return NewDate(i), nil
	case Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("minidb: bad FLOAT64 %q: %w", s, err)
		}
		return NewFloat(f), nil
	case String:
		return NewString(s), nil
	default:
		return Value{}, fmt.Errorf("minidb: unknown type %v", t)
	}
}

// Compare orders two values of the same kind: -1, 0 or 1. NULLs sort
// before all non-NULLs. Comparing different kinds is an error.
func Compare(a, b Value) (int, error) {
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("minidb: cannot compare %v with %v", a.Kind, b.Kind)
	}
	switch {
	case a.Null && b.Null:
		return 0, nil
	case a.Null:
		return -1, nil
	case b.Null:
		return 1, nil
	}
	switch a.Kind {
	case Int64, Date:
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	case Float64:
		switch {
		case a.F < b.F:
			return -1, nil
		case a.F > b.F:
			return 1, nil
		}
		return 0, nil
	case String:
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("minidb: unknown type %v", a.Kind)
	}
}

// Row is one tuple: a slice of values positionally matching a schema.
type Row []Value

// Clone returns a deep-enough copy of the row (values are copied;
// strings share backing storage, which is safe because values are
// immutable by convention).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
