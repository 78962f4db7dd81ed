package sqlmini

import (
	"fmt"
	"testing"

	"datalinks/internal/datalink"
)

// Additional executor coverage: NULL propagation, DATALINK predicates,
// three-table joins, alias ordering, and update coercion errors.

func TestNullPropagationInArithmetic(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, NULL)`)
	rows := mustQuery(t, db, `SELECT a + b, a || b, -b FROM t`)
	for i, v := range rows.Data[0] {
		if !v.IsNull() {
			t.Errorf("col %d = %v, want NULL", i, v)
		}
	}
}

func TestDatalinkEqualityPredicate(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT, doc DATALINK)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, DLVALUE('dlfs://s/a')), (2, DLVALUE('dlfs://s/b'))`)
	rows := mustQuery(t, db, `SELECT id FROM t WHERE doc = ?`, Link(datalink.MustParse("dlfs://s/b")))
	if len(rows.Data) != 1 || rows.Data[0][0].I != 2 {
		t.Fatalf("rows = %+v", rows.Data)
	}
	// String literal coerces for comparison via CoerceTo on insert only; an
	// explicit DLVALUE comparison works in-place.
	rows = mustQuery(t, db, `SELECT id FROM t WHERE doc = DLVALUE('dlfs://s/a')`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 {
		t.Fatalf("dlvalue predicate rows = %+v", rows.Data)
	}
}

// rowLocksHeld counts the row (not table) locks txn holds right now.
func rowLocksHeld(db *DB, txn *Txn) int {
	db.lm.heldMu.Lock()
	defer db.lm.heldMu.Unlock()
	n := 0
	for target := range db.lm.held[txn.id] {
		if !target.Whole {
			n++
		}
	}
	return n
}

// The engine addresses a host row by its DATALINK value on every file-update
// commit (UPDATE … SET doc_size = ? WHERE doc = ?). A DATALINK column is
// indexed from table construction, so that statement locks and evaluates one
// row — it must not X-lock, or cost in proportion to, the rest of the table.
func TestDatalinkUpdateIsPointLookup(t *testing.T) {
	// The same row in both tables, so the statement's own strings match.
	target := Link(datalink.MustParse("dlfs://s/d/f5.bin"))
	for _, c := range []struct {
		update string
		args   []Value
	}{
		{`UPDATE files SET doc_size = ? WHERE doc = ?`, []Value{Int(4096), target}},
		// One equality among ANDed conditions narrows just as well — the
		// shape of a conditional upsert (dlfm.EnsureReplicaRow).
		{`UPDATE files SET doc_size = ? WHERE doc = ? AND doc_size < ?`, []Value{Int(4096), target, Int(4096)}},
	} {
		run := func(rows int) (locks int, allocs float64) {
			db := testDB(t)
			mustExec(t, db, `CREATE TABLE files (id INT PRIMARY KEY, doc DATALINK, doc_size INT)`)
			for i := 0; i < rows; i++ {
				mustExec(t, db, `INSERT INTO files VALUES (?, ?, 0)`, Int(int64(i)), Str(fmt.Sprintf("dlfs://s/d/f%d.bin", i)))
			}
			txn := db.Begin()
			if n, err := txn.Exec(c.update, c.args...); err != nil || n != 1 {
				t.Fatalf("%s on %d rows: touched %d rows, %v", c.update, rows, n, err)
			}
			locks = rowLocksHeld(db, txn)
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if row := mustQuery(t, db, `SELECT doc_size FROM files WHERE id = 5`); row.Data[0][0].I != 4096 {
				t.Fatalf("%s on %d rows: update did not land: %+v", c.update, rows, row.Data)
			}
			allocs = testing.AllocsPerRun(50, func() { mustExec(t, db, c.update, c.args...) })
			return locks, allocs
		}
		locksSmall, allocsSmall := run(10)
		locksBig, allocsBig := run(1000)
		if locksSmall != 1 || locksBig != 1 {
			t.Errorf("%s: row locks held at commit: %d on 10 rows, %d on 1000 — want exactly the one matching row", c.update, locksSmall, locksBig)
		}
		if !raceEnabled && allocsBig > allocsSmall {
			t.Errorf("%s allocates %.0f objects on a 1000-row table, %.0f on a 10-row one — cost must not follow table size", c.update, allocsBig, allocsSmall)
		}
	}
}

// The implicit index is part of the schema: it is not listed in a
// checkpoint image, cannot be dropped, and is back after restart recovery.
func TestDatalinkIndexIsDerivedFromSchema(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE files (id INT PRIMARY KEY, doc DATALINK, tag VARCHAR)`)
	mustExec(t, db, `CREATE INDEX ON files (tag)`)
	mustExec(t, db, `INSERT INTO files VALUES (1, 'dlfs://s/a', 'x'), (2, 'dlfs://s/b', 'y')`)
	tbl, _ := db.Table("files")
	doc := tbl.ColIndex("doc")
	if !tbl.HasIndex(doc) {
		t.Fatal("DATALINK column has no index")
	}
	tbl.DropIndex(doc)
	if !tbl.HasIndex(doc) {
		t.Fatal("implicit DATALINK index was dropped")
	}
	if got := snapTable(tbl).Indexes; len(got) != 1 || got[0] != tbl.ColIndex("tag") {
		t.Fatalf("checkpoint lists indexes %v, want only the explicit one on tag", got)
	}
	db2, _ := recoverDB(t, db)
	tbl2, _ := db2.Table("files")
	if !tbl2.HasIndex(doc) {
		t.Fatal("DATALINK index missing after recovery")
	}
	if ids, _ := tbl2.LookupIndex(doc, Link(datalink.MustParse("dlfs://s/b"))); len(ids) != 1 {
		t.Fatalf("recovered index finds %v for dlfs://s/b", ids)
	}
}

func TestThreeTableJoin(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE a (id INT, v VARCHAR)`)
	mustExec(t, db, `CREATE TABLE b (id INT, v VARCHAR)`)
	mustExec(t, db, `CREATE TABLE c (id INT, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 'a1')`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 'b1'), (2, 'b2')`)
	mustExec(t, db, `INSERT INTO c VALUES (1, 'c1')`)
	rows := mustQuery(t, db, `SELECT a.v, b.v, c.v FROM a, b, c WHERE a.id = b.id AND b.id = c.id`)
	if len(rows.Data) != 1 || rows.Data[0][1].S != "b1" {
		t.Fatalf("join = %+v", rows.Data)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (3), (1), (2)`)
	rows := mustQuery(t, db, `SELECT a + 10 AS shifted FROM t ORDER BY shifted`)
	if rows.Data[0][0].I != 11 || rows.Data[2][0].I != 13 {
		t.Fatalf("ordered = %+v", rows.Data)
	}
}

func TestUpdateCoercionFailureAborts(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20)`)
	// 'abc' cannot become INT; the whole statement fails and nothing sticks.
	if _, err := db.Exec(`UPDATE t SET v = 'abc'`); err == nil {
		t.Fatal("bad coercion accepted")
	}
	rows := mustQuery(t, db, `SELECT SUM(v) FROM t`)
	if rows.Data[0][0].I != 30 {
		t.Fatalf("partial update leaked: sum = %d", rows.Data[0][0].I)
	}
}

func TestSelectLimitZero(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	rows := mustQuery(t, db, `SELECT a FROM t LIMIT 0`)
	if len(rows.Data) != 0 {
		t.Fatalf("limit 0 returned %d rows", len(rows.Data))
	}
}

func TestNestedFunctionCalls(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (s VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES ('MiXeD')`)
	rows := mustQuery(t, db, `SELECT UPPER(LOWER(s)), LENGTH(UPPER(s)) FROM t`)
	if rows.Data[0][0].S != "MIXED" || rows.Data[0][1].I != 5 {
		t.Fatalf("nested = %+v", rows.Data[0])
	}
}

func TestInsertSelectVisibilityWithinTxn(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	txn := db.Begin()
	if _, err := txn.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Own writes are visible inside the transaction.
	rows, err := txn.Query(`SELECT COUNT(*) FROM t`)
	if err != nil || rows.Data[0][0].I != 1 {
		t.Fatalf("own-write visibility = %+v, %v", rows, err)
	}
	txn.Abort()
	rows2 := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rows2.Data[0][0].I != 0 {
		t.Fatalf("after abort count = %d", rows2.Data[0][0].I)
	}
}

func TestBoolAndTimeColumns(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (flag BOOLEAN, at TIMESTAMP)`)
	mustExec(t, db, `INSERT INTO t VALUES (TRUE, NOW()), (FALSE, NOW())`)
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE flag = TRUE`)
	if rows.Data[0][0].I != 1 {
		t.Fatalf("bool predicate = %d", rows.Data[0][0].I)
	}
	rows = mustQuery(t, db, `SELECT at FROM t LIMIT 1`)
	if rows.Data[0][0].K != KindTime || rows.Data[0][0].T.IsZero() {
		t.Fatalf("timestamp = %+v", rows.Data[0][0])
	}
}
