// Package sqlmini is the host relational database of the reproduction: a
// small but complete transactional SQL engine standing in for DB2 UDB.
//
// It provides typed tables (including the DATALINK type), a SQL subset,
// strict two-phase locking at row granularity, write-ahead logging with
// ARIES-style restart recovery, and two-phase commit with external resource
// managers — the hook DLFM plugs into so link/unlink and file-update
// transactions share the host transaction's fate (§2.2 of the paper).
//
// The DLFM's repository is a DB too, but runs no SQL: its schema and every
// change are typed operations (Txn.CreateTable, DropTable, LockKey,
// InsertRow, UpdateRow, DeleteKey), the code SQL DDL and DML run through,
// so they log what their statements log.
//
// Hot data is served in place, not copied per access. A row installed in a
// Table is never written again, so reads (Table.Get, Table.Scan, the
// executor, the checkpoint image) share the installed slice; an UPDATE
// builds a new row and installs that. Index keys are comparable structs,
// not rendered strings, and the lock manager reuses its per-target states
// and per-transaction held sets, so a steady-state acquire allocates
// nothing.
package sqlmini

import (
	"fmt"
	"strings"
	"time"

	"datalinks/internal/datalink"
)

// Kind enumerates the SQL types supported by the engine.
type Kind uint8

// Value kinds. KindLink is the DATALINK type of SQL/MED. The numbers are on
// disk (the log payload tags every value with its kind): append, never
// renumber.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
	KindLink
)

// String names the kind like the SQL type it represents.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	case KindLink:
		return "DATALINK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is SQL NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
	T time.Time
	L datalink.Link
}

// Constructors for each kind.
func Null() Value                { return Value{} }
func Int(v int64) Value          { return Value{K: KindInt, I: v} }
func Float(v float64) Value      { return Value{K: KindFloat, F: v} }
func Str(v string) Value         { return Value{K: KindString, S: v} }
func Bool(v bool) Value          { return Value{K: KindBool, B: v} }
func Time(v time.Time) Value     { return Value{K: KindTime, T: v} }
func Link(v datalink.Link) Value { return Value{K: KindLink, L: v} }
func (v Value) IsNull() bool     { return v.K == KindNull }
func (v Value) Kind() Kind       { return v.K }
func (v Value) AsLink() (datalink.Link, bool) {
	if v.K != KindLink {
		return datalink.Link{}, false
	}
	return v.L, true
}

// String renders the value for display.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case KindTime:
		return v.T.UTC().Format("2006-01-02 15:04:05.000000")
	case KindLink:
		return v.L.URL()
	default:
		return "?"
	}
}

// numeric returns the value as float64 when it is numeric.
func (v Value) numeric() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Compare orders two values: -1, 0, +1. NULL compares as unknown and returns
// an error so predicates can implement three-valued logic. Ints and floats
// compare across kinds; other cross-kind comparisons error.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, errNullCompare
	}
	if an, ok := a.numeric(); ok {
		if bn, ok := b.numeric(); ok {
			switch {
			case an < bn:
				return -1, nil
			case an > bn:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if a.K != b.K {
		return 0, fmt.Errorf("sqlmini: cannot compare %s with %s", a.K, b.K)
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S), nil
	case KindBool:
		ab, bb := 0, 0
		if a.B {
			ab = 1
		}
		if b.B {
			bb = 1
		}
		return ab - bb, nil
	case KindTime:
		switch {
		case a.T.Before(b.T):
			return -1, nil
		case a.T.After(b.T):
			return 1, nil
		default:
			return 0, nil
		}
	case KindLink:
		// The order of the URLs, "dlfs://"+Server+Path; the scheme is common
		// to both, so compare the rest without building either string.
		return compareJoined(a.L.Server, a.L.Path, b.L.Server, b.L.Path), nil
	default:
		return 0, fmt.Errorf("sqlmini: cannot compare kind %s", a.K)
	}
}

// compareJoined orders a1+a2 against b1+b2 byte by byte, as strings.Compare
// would order the concatenations.
func compareJoined(a1, a2, b1, b2 string) int {
	for {
		if a1 == "" {
			a1, a2 = a2, ""
		}
		if b1 == "" {
			b1, b2 = b2, ""
		}
		if a1 == "" || b1 == "" {
			// At least one side is used up: the shorter string sorts first.
			return strings.Compare(a1, b1)
		}
		n := min(len(a1), len(b1))
		if c := strings.Compare(a1[:n], b1[:n]); c != 0 {
			return c
		}
		a1, b1 = a1[n:], b1[n:]
	}
}

var errNullCompare = fmt.Errorf("sqlmini: NULL comparison")

// CoerceTo converts v to the column kind where the SQL standard allows it
// (int ↔ float, string → link). It returns an error for lossy or nonsense
// conversions.
func CoerceTo(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.K == k {
		return v, nil
	}
	switch {
	case v.K == KindInt && k == KindFloat:
		return Float(float64(v.I)), nil
	case v.K == KindFloat && k == KindInt:
		i := int64(v.F)
		if float64(i) != v.F {
			return Value{}, fmt.Errorf("sqlmini: non-integral %g for BIGINT column", v.F)
		}
		return Int(i), nil
	case v.K == KindString && k == KindLink:
		l, err := datalink.Parse(v.S)
		if err != nil {
			return Value{}, err
		}
		return Link(l), nil
	case v.K == KindLink && k == KindString:
		return Str(v.L.URL()), nil
	default:
		return Value{}, fmt.Errorf("sqlmini: cannot assign %s to %s column", v.K, k)
	}
}

// Row is an ordered tuple of values matching a table's column order. A row
// installed in a Table is never written again (see Table).
type Row []Value

// Clone copies a row. Values hold no mutable references (strings are
// immutable), so this is a deep copy.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
