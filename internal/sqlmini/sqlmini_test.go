package sqlmini

import (
	"errors"
	"strings"
	"testing"
	"time"

	"datalinks/internal/wal"
)

// testLog opens an empty log over a fresh test directory, closed at cleanup.
func testLog(t *testing.T) *wal.Log {
	t.Helper()
	lg, err := wal.Open(wal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	return lg
}

func testDB(t *testing.T) *DB {
	t.Helper()
	return NewDB(Options{Log: testLog(t), LockTimeout: 500 * time.Millisecond})
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) int {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rows
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE emp (id INT PRIMARY KEY, name VARCHAR(40), dept VARCHAR(10))`)
	n := mustExec(t, db, `INSERT INTO emp (id, name, dept) VALUES (1, 'alice', 'eng'), (2, 'bob', 'sales')`)
	if n != 2 {
		t.Fatalf("insert affected %d", n)
	}
	rows := mustQuery(t, db, `SELECT name FROM emp WHERE dept = 'eng'`)
	if len(rows.Data) != 1 || rows.Data[0][0].S != "alice" {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestInsertAllColumnsPositional(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'x')`)
	rows := mustQuery(t, db, `SELECT * FROM t`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 || rows.Data[0][1].S != "x" {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestPrimaryKeyDuplicateRejected(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("duplicate PK accepted")
	}
	// Failed statement must not leave a row behind.
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 1 {
		t.Fatalf("count = %d after failed insert", rows.Data[0][0].I)
	}
}

func TestUpdateWhere(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	n := mustExec(t, db, `UPDATE t SET v = v + 1 WHERE v >= 20`)
	if n != 2 {
		t.Fatalf("update affected %d", n)
	}
	rows := mustQuery(t, db, `SELECT v FROM t ORDER BY v`)
	got := []int64{rows.Data[0][0].I, rows.Data[1][0].I, rows.Data[2][0].I}
	if got[0] != 10 || got[1] != 21 || got[2] != 31 {
		t.Fatalf("values = %v", got)
	}
}

func TestDeleteWhere(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3), (4)`)
	n := mustExec(t, db, `DELETE FROM t WHERE id > 2`)
	if n != 2 {
		t.Fatalf("delete affected %d", n)
	}
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 2 {
		t.Fatalf("count = %d", rows.Data[0][0].I)
	}
}

func TestSelectOrderLimitDesc(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b')`)
	rows := mustQuery(t, db, `SELECT id, v FROM t ORDER BY id DESC LIMIT 2`)
	if len(rows.Data) != 2 || rows.Data[0][0].I != 3 || rows.Data[1][0].I != 2 {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (v INT, s VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (5, 'a'), (1, 'b'), (9, 'c'), (NULL, 'd')`)
	rows := mustQuery(t, db, `SELECT COUNT(*), COUNT(v), MIN(v), MAX(v), SUM(v), AVG(v) FROM t`)
	r := rows.Data[0]
	if r[0].I != 4 || r[1].I != 3 || r[2].I != 1 || r[3].I != 9 || r[4].I != 15 || r[5].F != 5.0 {
		t.Fatalf("aggregates = %+v", r)
	}
}

func TestAggregateOverEmpty(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	rows := mustQuery(t, db, `SELECT COUNT(*), MIN(v), SUM(v) FROM t`)
	r := rows.Data[0]
	if r[0].I != 0 || !r[1].IsNull() || r[2].I != 0 {
		t.Fatalf("empty aggregates = %+v", r)
	}
}

func TestNullThreeValuedLogic(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, NULL)`)
	// NULL comparisons never match.
	rows := mustQuery(t, db, `SELECT id FROM t WHERE v = 10`)
	if len(rows.Data) != 1 {
		t.Fatalf("v=10 matched %d rows", len(rows.Data))
	}
	rows = mustQuery(t, db, `SELECT id FROM t WHERE v <> 10`)
	if len(rows.Data) != 0 {
		t.Fatalf("v<>10 matched %d rows (NULL must not match)", len(rows.Data))
	}
	rows = mustQuery(t, db, `SELECT id FROM t WHERE v IS NULL`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 2 {
		t.Fatalf("IS NULL = %+v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT id FROM t WHERE v IS NOT NULL`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 {
		t.Fatalf("IS NOT NULL = %+v", rows.Data)
	}
}

func TestAndOrPrecedence(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 1), (1, 2), (2, 1), (2, 2)`)
	// a=1 OR a=2 AND b=2  ==  a=1 OR (a=2 AND b=2)  -> 3 rows
	rows := mustQuery(t, db, `SELECT a, b FROM t WHERE a = 1 OR a = 2 AND b = 2`)
	if len(rows.Data) != 3 {
		t.Fatalf("precedence: %d rows, want 3", len(rows.Data))
	}
	rows = mustQuery(t, db, `SELECT a FROM t WHERE (a = 1 OR a = 2) AND b = 2`)
	if len(rows.Data) != 2 {
		t.Fatalf("parens: %d rows, want 2", len(rows.Data))
	}
	rows = mustQuery(t, db, `SELECT a FROM t WHERE NOT (a = 1)`)
	if len(rows.Data) != 2 {
		t.Fatalf("NOT: %d rows, want 2", len(rows.Data))
	}
}

func TestParamsPlaceholders(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(7), Str("seven"))
	rows := mustQuery(t, db, `SELECT name FROM t WHERE id = ?`, Int(7))
	if len(rows.Data) != 1 || rows.Data[0][0].S != "seven" {
		t.Fatalf("rows = %+v", rows.Data)
	}
	if _, err := db.Query(`SELECT name FROM t WHERE id = ?`); err == nil {
		t.Fatal("missing arg should error")
	}
}

func TestStringEscapesAndConcat(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (s VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES ('it''s')`)
	rows := mustQuery(t, db, `SELECT s || '!' FROM t`)
	if rows.Data[0][0].S != "it's!" {
		t.Fatalf("concat = %q", rows.Data[0][0].S)
	}
}

func TestArithmetic(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b DOUBLE)`)
	mustExec(t, db, `INSERT INTO t VALUES (7, 2.5)`)
	rows := mustQuery(t, db, `SELECT a + 1, a * 2, a / 2, b * 2, -a FROM t`)
	r := rows.Data[0]
	if r[0].I != 8 || r[1].I != 14 {
		t.Fatalf("int arith = %+v", r)
	}
	if r[2].K != KindFloat || r[2].F != 3.5 {
		t.Fatalf("non-exact division = %+v", r[2])
	}
	if r[3].F != 5.0 || r[4].I != -7 {
		t.Fatalf("arith = %+v", r)
	}
	if _, err := db.Query(`SELECT a / 0 FROM t`); err == nil {
		t.Fatal("division by zero accepted")
	}
}

func TestBuiltinFunctions(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (s VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES ('Hello')`)
	rows := mustQuery(t, db, `SELECT LENGTH(s), UPPER(s), LOWER(s) FROM t`)
	r := rows.Data[0]
	if r[0].I != 5 || r[1].S != "HELLO" || r[2].S != "hello" {
		t.Fatalf("builtins = %+v", r)
	}
}

func TestDatalinkColumnAndFunctions(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE movies (id INT PRIMARY KEY, clip DATALINK MODE RDD RECOVERY YES)`)
	tbl, err := db.Table("movies")
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	if tbl.Columns[1].DL.Mode.String() != "rdd" || !tbl.Columns[1].DL.Recovery {
		t.Fatalf("column options = %+v", tbl.Columns[1].DL)
	}
	mustExec(t, db, `INSERT INTO movies VALUES (1, DLVALUE('dlfs://srv1/movies/clip1.mpg'))`)
	rows := mustQuery(t, db, `SELECT DLURLPATHONLY(clip), DLURLSERVER(clip), DLURLSCHEME(clip) FROM movies`)
	r := rows.Data[0]
	if r[0].S != "/movies/clip1.mpg" || r[1].S != "srv1" || r[2].S != "dlfs" {
		t.Fatalf("dl functions = %+v", r)
	}
	// String is auto-coerced to DATALINK on insert.
	mustExec(t, db, `INSERT INTO movies VALUES (2, 'dlfs://srv1/movies/clip2.mpg')`)
	rows = mustQuery(t, db, `SELECT clip FROM movies WHERE id = 2`)
	if l, ok := rows.Data[0][0].AsLink(); !ok || l.Path != "/movies/clip2.mpg" {
		t.Fatalf("coerced link = %+v", rows.Data[0][0])
	}
}

func TestNotNullEnforced(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR NOT NULL)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1, NULL)`); err == nil {
		t.Fatal("NULL into NOT NULL accepted")
	}
	if _, err := db.Exec(`UPDATE t SET v = NULL`); err != nil {
		t.Fatalf("update over empty table should be a no-op: %v", err)
	}
}

func TestTypeCoercionErrors(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	if _, err := db.Exec(`INSERT INTO t VALUES ('abc')`); err == nil {
		t.Fatal("string into INT accepted")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1.5)`); err == nil {
		t.Fatal("fractional into INT accepted")
	}
	mustExec(t, db, `INSERT INTO t VALUES (2.0)`) // exact conversion fine
}

func TestCrossJoin(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE a (id INT, x VARCHAR)`)
	mustExec(t, db, `CREATE TABLE b (id INT, y VARCHAR)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 'a1'), (2, 'a2')`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 'b1'), (2, 'b2')`)
	rows := mustQuery(t, db, `SELECT a.x, b.y FROM a, b WHERE a.id = b.id ORDER BY x`)
	if len(rows.Data) != 2 || rows.Data[0][0].S != "a1" || rows.Data[0][1].S != "b1" {
		t.Fatalf("join = %+v", rows.Data)
	}
}

func TestDropTable(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	mustExec(t, db, `DROP TABLE t`)
	if _, err := db.Query(`SELECT * FROM t`); err == nil {
		t.Fatal("query of dropped table succeeded")
	}
}

func TestSecondaryIndexUsedAndCorrect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, cat VARCHAR)`)
	for i := 0; i < 20; i++ {
		cat := "odd"
		if i%2 == 0 {
			cat = "even"
		}
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Str(cat))
	}
	mustExec(t, db, `CREATE INDEX ON t (cat)`)
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE cat = 'even'`)
	if rows.Data[0][0].I != 10 {
		t.Fatalf("indexed count = %d", rows.Data[0][0].I)
	}
	// Index stays correct across update/delete.
	mustExec(t, db, `UPDATE t SET cat = 'odd' WHERE id = 0`)
	mustExec(t, db, `DELETE FROM t WHERE id = 2`)
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE cat = 'even'`)
	if rows.Data[0][0].I != 8 {
		t.Fatalf("after churn count = %d", rows.Data[0][0].I)
	}
}

func TestParserErrors(t *testing.T) {
	db := testDB(t)
	for _, bad := range []string{
		`SELEC x FROM t`,
		`SELECT FROM t`,
		`CREATE TABLE`,
		`INSERT INTO`,
		`SELECT * FROM t WHERE`,
		`CREATE TABLE t (x FROBTYPE)`,
		`SELECT * FROM t LIMIT -1`,
		`UPDATE t SET`,
		`SELECT 'unterminated FROM t`,
	} {
		if _, err := db.Query(bad); err == nil {
			if _, err2 := db.Exec(bad); err2 == nil {
				t.Errorf("statement %q accepted", bad)
			}
		}
	}
}

func TestRowsString(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT, name VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'alice')`)
	rows := mustQuery(t, db, `SELECT * FROM t`)
	s := rows.String()
	if !strings.Contains(s, "alice") || !strings.Contains(s, "id") {
		t.Fatalf("rendered table missing data:\n%s", s)
	}
}

func TestQueryRow(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	if _, err := db.QueryRow(`SELECT id FROM t`); err == nil {
		t.Fatal("QueryRow over 2 rows should fail")
	}
	r, err := db.QueryRow(`SELECT id FROM t WHERE id = 2`)
	if err != nil || r[0].I != 2 {
		t.Fatalf("QueryRow = %+v, %v", r, err)
	}
}

func TestCompareAndCoerce(t *testing.T) {
	if c, err := Compare(Int(1), Float(1.0)); err != nil || c != 0 {
		t.Errorf("int/float compare = %d, %v", c, err)
	}
	if _, err := Compare(Str("a"), Int(1)); err == nil {
		t.Error("string/int compare should fail")
	}
	if _, err := Compare(Null(), Int(1)); !errors.Is(err, errNullCompare) {
		t.Error("null compare should be unknown")
	}
	if c, _ := Compare(Bool(false), Bool(true)); c >= 0 {
		t.Error("false should sort before true")
	}
	if c, _ := Compare(Time(time.Unix(1, 0)), Time(time.Unix(2, 0))); c >= 0 {
		t.Error("time compare wrong")
	}
	if v, err := CoerceTo(Str("dlfs://s/p"), KindLink); err != nil || v.K != KindLink {
		t.Errorf("string->link coerce = %+v, %v", v, err)
	}
	if _, err := CoerceTo(Bool(true), KindInt); err == nil {
		t.Error("bool->int coerce should fail")
	}
}
