package sqlmini

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datalinks/internal/wal"
)

// crossJoinDB holds t — primary key, NULLs, an indexed column, a float —
// and one, a table of one row whose column name t does not use.
func crossJoinDB(tb testing.TB) *DB {
	lg, err := wal.Open(wal.Config{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { lg.Close() })
	db := NewDB(Options{Log: lg})
	for _, sql := range []string{
		`CREATE TABLE t (id INT PRIMARY KEY, a INT, b VARCHAR, c FLOAT)`,
		`CREATE INDEX ON t (b)`,
		`CREATE TABLE one (k INT)`,
		`INSERT INTO one VALUES (7)`,
	} {
		if _, err := db.Exec(sql); err != nil {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
	for id := 0; id < 12; id++ {
		a, b := Int(int64(id%5)), Str(fmt.Sprintf("s%d", id%4))
		if id%6 == 5 {
			a = Null()
		}
		if id%7 == 3 {
			b = Null()
		}
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?, ?)`, Int(int64(id)), a, b, Float(float64(id)*1.5-4)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// selectGen turns fuzz bytes into a SELECT over t. Predicates compare a
// column with a literal of its own kind and never divide, so a statement
// errs only where both executors must.
type selectGen struct{ b []byte }

func (g *selectGen) pick(n int) int {
	if len(g.b) == 0 {
		return 0
	}
	c := int(g.b[0]) % n
	g.b = g.b[1:]
	return c
}

var crossJoinOps = []string{"=", "<>", "<", "<=", ">", ">="}

func (g *selectGen) pred(depth int) string {
	if depth < 2 {
		switch g.pick(6) {
		case 0:
			return fmt.Sprintf("(%s AND %s)", g.pred(depth+1), g.pred(depth+1))
		case 1:
			return fmt.Sprintf("(%s OR %s)", g.pred(depth+1), g.pred(depth+1))
		case 2:
			return fmt.Sprintf("NOT (%s)", g.pred(depth+1))
		}
	}
	op := crossJoinOps[g.pick(len(crossJoinOps))]
	switch g.pick(8) {
	case 0:
		return fmt.Sprintf("id = %d", g.pick(14))
	case 1:
		return fmt.Sprintf("b = 's%d'", g.pick(5))
	case 2:
		return fmt.Sprintf("t.a %s %d", op, g.pick(6))
	case 3:
		return fmt.Sprintf("c %s %d.5", op, g.pick(12)-4)
	case 4:
		return fmt.Sprintf("b %s 's%d'", op, g.pick(5))
	case 5:
		return fmt.Sprintf("a + %d %s %d", g.pick(3), op, g.pick(8))
	case 6:
		return []string{"a IS NULL", "b IS NOT NULL"}[g.pick(2)]
	default:
		return fmt.Sprintf("id %s %d", op, g.pick(14))
	}
}

var (
	crossJoinItems = []string{"id", "a", "b", "c", "a * 2 + id", "UPPER(b)", "LENGTH(b)", "b || 'x'", "-c", "3"}
	crossJoinAggs  = []string{"COUNT(*)", "COUNT(a)", "COUNT(b)", "SUM(a)", "SUM(c)", "AVG(a)", "MIN(b)", "MAX(a)", "MIN(c)"}
)

// query returns the statement over from and whether it selects *.
func (g *selectGen) query() (func(from string) string, bool) {
	var sel, order string
	star := false
	switch g.pick(3) {
	case 0:
		sel, star = "*", true
		order = []string{"id", "a", "b", "c"}[g.pick(4)]
	case 1:
		items := make([]string, 1+g.pick(3))
		for i := range items {
			items[i] = fmt.Sprintf("%s AS x%d", crossJoinItems[g.pick(len(crossJoinItems))], i)
		}
		sel, order = strings.Join(items, ", "), fmt.Sprintf("x%d", g.pick(len(items)))
	default:
		items := make([]string, 1+g.pick(3))
		for i := range items {
			items[i] = crossJoinAggs[g.pick(len(crossJoinAggs))]
		}
		sel = strings.Join(items, ", ")
	}
	var tail strings.Builder
	if g.pick(4) != 0 {
		tail.WriteString(" WHERE " + g.pred(0))
	}
	if order != "" && g.pick(2) == 0 {
		tail.WriteString(" ORDER BY " + order + []string{"", " DESC"}[g.pick(2)])
	}
	if g.pick(3) == 0 {
		fmt.Fprintf(&tail, " LIMIT %d", g.pick(6))
	}
	if g.pick(4) == 0 {
		tail.WriteString(" FOR UPDATE")
	}
	return func(from string) string { return "SELECT " + sel + " FROM " + from + tail.String() }, star
}

// FuzzSelectCrossJoinOne pits the executor's one-table enumeration — WHERE
// pushed into matchRows, a primary-key or index probe where one applies —
// against its join enumeration, which filters every combination: a SELECT
// over t must answer what the same SELECT over t, one answers, one's column
// dropped from a * answer.
func FuzzSelectCrossJoinOne(f *testing.F) {
	for _, seed := range []string{"", "\x00\x00", "\x01\x03\x00\x02\x01", "\x02\x02\x01\x03\x04", "\x01\x00\x05\x00\x03\x01\x00\x02", "\x00\x01\x03\x00\x01\x02\x00\x00\x01"} {
		f.Add([]byte(seed))
	}
	db := crossJoinDB(f)
	f.Fuzz(func(t *testing.T, choices []byte) {
		g := &selectGen{b: choices}
		sql, star := g.query()
		single, serr := db.Query(sql("t"))
		joined, jerr := db.Query(sql("t, one"))
		if (serr == nil) != (jerr == nil) {
			t.Fatalf("%s: one table %v, joined with one %v", sql("t"), serr, jerr)
		}
		if serr != nil {
			return
		}
		if star {
			joined.Cols = joined.Cols[:len(joined.Cols)-1]
			for i, r := range joined.Data {
				joined.Data[i] = r[:len(r)-1]
			}
		}
		if !reflect.DeepEqual(single, joined) {
			t.Fatalf("%s\none table:\n%s\njoined with one:\n%s", sql("t"), single, joined)
		}
	})
}

// matchRows answers a primary-key hit in arrays the transaction owns, valid
// until its next matchRows: two point statements and then an UPDATE in one
// transaction each see their own row, an answer already returned does not
// change under a later statement, and the UPDATE changes only its row.
func TestPointStatementsShareTheTxnScratch(t *testing.T) {
	db := crossJoinDB(t)
	txn := db.Begin()
	first, err := txn.QueryRow(`SELECT id, b FROM t WHERE id = ?`, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := txn.QueryRow(`SELECT * FROM t WHERE id = ?`, Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := txn.Exec(`UPDATE t SET b = 'new' WHERE id = ?`, Int(1)); err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	if first[0].I != 1 || first[1].S != "s1" {
		t.Fatalf("first answer changed under later statements: %v", first)
	}
	if second[0].I != 2 || second[2].S != "s2" {
		t.Fatalf("second answer changed under later statements: %v", second)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	rows2 := mustQuery(t, db, `SELECT id, b FROM t WHERE id = 1 OR id = 2 ORDER BY id`)
	if got := fmt.Sprint(rows2.Data); got != "[[1 new] [2 s2]]" {
		t.Fatalf("after commit: %s, want only row 1 updated", got)
	}
}

// A join enumerates its combinations with the first table turning slowest,
// yields none when a table is empty, and folds every combination into an
// aggregate.
func TestJoinEnumeratesFirstTableSlowest(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE p (x INT)`)
	mustExec(t, db, `CREATE TABLE q (y INT)`)
	mustExec(t, db, `CREATE TABLE e (z INT)`)
	mustExec(t, db, `INSERT INTO p VALUES (1), (2)`)
	mustExec(t, db, `INSERT INTO q VALUES (10), (20), (30)`)
	if got := fmt.Sprint(mustQuery(t, db, `SELECT * FROM p, q`).Data); got != "[[1 10] [1 20] [1 30] [2 10] [2 20] [2 30]]" {
		t.Fatalf("p, q = %s", got)
	}
	if got := fmt.Sprint(mustQuery(t, db, `SELECT y, x FROM q, p WHERE x + y > 12`).Data); got != "[[20 1] [20 2] [30 1] [30 2]]" {
		t.Fatalf("q, p = %s", got)
	}
	if rows := mustQuery(t, db, `SELECT * FROM p, e, q`); len(rows.Data) != 0 || len(rows.Cols) != 3 {
		t.Fatalf("a join over an empty table = %v %v", rows.Cols, rows.Data)
	}
	if got := fmt.Sprint(mustQuery(t, db, `SELECT COUNT(*), SUM(y), MAX(x) FROM p, q`).Data); got != "[[6 120 2]]" {
		t.Fatalf("aggregates over p, q = %s", got)
	}
}

// A result is the caller's own: writing to its column names or its rows
// changes neither the cached statement nor the table.
func TestResultIsTheCallersOwn(t *testing.T) {
	db := crossJoinDB(t)
	for _, sql := range []string{`SELECT * FROM t WHERE id = 1`, `SELECT id, b AS name FROM t WHERE id = 1`} {
		first := mustQuery(t, db, sql)
		want := fmt.Sprint(first.Cols, first.Data)
		for i := range first.Cols {
			first.Cols[i] = "scribbled"
		}
		first.Data[0][1] = Str("scribbled")
		if again := mustQuery(t, db, sql); fmt.Sprint(again.Cols, again.Data) != want {
			t.Fatalf("%s after writing to an earlier result: %v %v, want %s", sql, again.Cols, again.Data, want)
		}
	}
}
