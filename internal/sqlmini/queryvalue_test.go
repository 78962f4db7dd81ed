package sqlmini

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// QueryValue answers what Query answers when that is one row of one value,
// and errs otherwise: a keyed lookup skips the result set, every other shape
// is execSelect's.
func TestQueryValueMatchesQuery(t *testing.T) {
	db := crossJoinDB(t)
	for _, tc := range []struct {
		name string
		sql  string
		args []Value
		want Value
		err  bool
	}{
		{name: "primary-key hit", sql: `SELECT b FROM t WHERE id = ?`, args: []Value{Int(2)}, want: Str("s2")},
		{name: "index hit", sql: `SELECT id FROM t WHERE b = ? AND a = ?`, args: []Value{Str("s3"), Int(2)}, want: Int(7)},
		{name: "scan with WHERE", sql: `SELECT c FROM t WHERE a + 1 = 5 AND c > 5`, want: Float(9.5)},
		{name: "expression item", sql: `SELECT b || 'x' FROM t WHERE id = 6`, want: Str("s2x")},
		{name: "NULL result", sql: `SELECT a FROM t WHERE id = 5`, want: Null()},
		{name: "0 rows", sql: `SELECT a FROM t WHERE id = 99`, err: true},
		{name: "2 rows", sql: `SELECT id FROM t WHERE a = 0`, err: true},
		{name: "2 columns", sql: `SELECT a, b FROM t WHERE id = 1`, err: true},
		{name: "COUNT(*)", sql: `SELECT COUNT(*) FROM t WHERE a IS NULL`, want: Int(2)},
		{name: "ORDER BY", sql: `SELECT b AS x FROM t WHERE id = 1 ORDER BY x`, want: Str("s1")},
		{name: "ORDER BY an unknown column", sql: `SELECT b FROM t WHERE id = 1 ORDER BY nope`, err: true},
		{name: "LIMIT 0", sql: `SELECT b FROM t WHERE id = 1 LIMIT 0`, err: true},
		{name: "LIMIT 1 of many", sql: `SELECT id FROM t WHERE a = 0 ORDER BY id LIMIT 1`, want: Int(0)},
		{name: "join", sql: `SELECT k FROM t, one WHERE id = 3`, want: Int(7)},
		{name: "unknown table", sql: `SELECT a FROM nope WHERE id = 1`, err: true},
		{name: "not a SELECT", sql: `DELETE FROM t WHERE id = 1`, err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := db.QueryValue(tc.sql, tc.args...)
			if tc.err {
				if err == nil {
					t.Fatalf("QueryValue = %v, want an error", got)
				}
			} else if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("QueryValue = %v, %v; want %v", got, err, tc.want)
			}
			rows, qerr := db.Query(tc.sql, tc.args...)
			checkAgainstQuery(t, tc.sql, got, err, rows, qerr)
		})
	}
	// An ORDER BY on a column the select list lacks is the same error.
	const sql = `SELECT b FROM t WHERE id = 1 ORDER BY nope`
	_, verr := db.QueryValue(sql)
	_, qerr := db.Query(sql)
	if verr == nil || qerr == nil || verr.Error() != qerr.Error() {
		t.Fatalf("ORDER BY nope: QueryValue %v, Query %v", verr, qerr)
	}
}

// checkAgainstQuery holds one QueryValue answer to Query's: both err, or
// Query's answer is one cell and QueryValue returned it, or Query's is not
// and QueryValue erred.
func checkAgainstQuery(t *testing.T, sql string, v Value, verr error, rows *Rows, qerr error) {
	t.Helper()
	if qerr != nil {
		if verr == nil {
			t.Fatalf("%s: Query erred (%v), QueryValue returned %v", sql, qerr, v)
		}
		return
	}
	if len(rows.Data) != 1 || len(rows.Cols) != 1 {
		if verr == nil {
			t.Fatalf("%s: Query answered %d rows of %d columns, QueryValue returned %v", sql, len(rows.Data), len(rows.Cols), v)
		}
		return
	}
	if verr != nil || !reflect.DeepEqual(v, rows.Data[0][0]) {
		t.Fatalf("%s: QueryValue %v, %v; Query's one cell %v", sql, v, verr, rows.Data[0][0])
	}
}

// A FOR UPDATE point read takes the row's X lock and holds it until its
// transaction ends, as Query does.
func TestQueryValueForUpdateHoldsTheXLock(t *testing.T) {
	db := NewDB(Options{Log: testLog(t), LockTimeout: 150 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	holder := db.Begin()
	if v, err := holder.QueryValue(`SELECT v FROM t WHERE id = ? FOR UPDATE`, Int(1)); err != nil || v.I != 10 {
		t.Fatalf("select for update: %v, %v", v, err)
	}
	if _, err := db.QueryValue(`SELECT v FROM t WHERE id = 1`); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("reader while the X lock is held: %v, want %v", err, ErrLockTimeout)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := db.QueryValue(`SELECT v FROM t WHERE id = 1`); err != nil || v.I != 10 {
		t.Fatalf("reader after the commit: %v, %v", v, err)
	}
}

// oneItem turns fuzz bytes into a one-item SELECT over t: a plain item or an
// aggregate, with an optional WHERE, ORDER BY (on the item's alias or on a
// column not in the list), LIMIT and FOR UPDATE.
func (g *selectGen) oneItem() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if g.pick(3) == 0 {
		sb.WriteString(crossJoinAggs[g.pick(len(crossJoinAggs))])
	} else {
		sb.WriteString(crossJoinItems[g.pick(len(crossJoinItems))])
	}
	sb.WriteString(" AS x FROM t")
	if g.pick(4) != 0 {
		sb.WriteString(" WHERE " + g.pred(0))
	}
	if g.pick(3) == 0 {
		sb.WriteString(" ORDER BY " + []string{"x", "id"}[g.pick(2)] + []string{"", " DESC"}[g.pick(2)])
	}
	if g.pick(3) == 0 {
		fmt.Fprintf(&sb, " LIMIT %d", g.pick(3))
	}
	if g.pick(4) == 0 {
		sb.WriteString(" FOR UPDATE")
	}
	return sb.String()
}

// FuzzQueryValueMatchesQuery holds QueryValue — its point path and its
// execSelect path — to Query on random one-item SELECTs.
func FuzzQueryValueMatchesQuery(f *testing.F) {
	for _, seed := range []string{"", "\x01\x00\x01\x00\x00", "\x01\x00\x00\x00\x0d", "\x00\x00\x01", "\x02\x09\x01\x03\x00\x00\x00", "\x01\x02\x00\x04\x01\x00\x02\x00\x01"} {
		f.Add([]byte(seed))
	}
	db := crossJoinDB(f)
	f.Fuzz(func(t *testing.T, choices []byte) {
		sql := (&selectGen{b: choices}).oneItem()
		v, verr := db.QueryValue(sql)
		rows, qerr := db.Query(sql)
		checkAgainstQuery(t, sql, v, verr, rows, qerr)
	})
}
