package sqlmini

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"datalinks/internal/wal"
)

// The typed operations (LockKey, InsertRow, UpdateRow, DeleteKey,
// CreateTable, DropTable) are held to the SQL statements they stand in for:
// the same log records, row locks, hook calls, undo, recovery and refusals.

// keyedDB opens a fresh database holding files(/a, /b), indexed on mode,
// every change it sees recorded by its DML hook into *hooked.
func keyedDB(t *testing.T, hooked *[]string) *DB {
	t.Helper()
	db := NewDB(Options{Log: testLog(t), LockTimeout: 500 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE files (path VARCHAR PRIMARY KEY, mode VARCHAR NOT NULL, version INT NOT NULL, size FLOAT)`)
	mustExec(t, db, `CREATE INDEX ON files (mode)`)
	mustExec(t, db, `INSERT INTO files VALUES ('/a', 'rfd', 1, 1.5), ('/b', 'rdd', 2, NULL)`)
	db.SetDMLHook(func(_ *Txn, tbl *Table, op DMLOp, old, new Row) error {
		*hooked = append(*hooked, fmt.Sprint(tbl.Name, op, old, new))
		return nil
	})
	return db
}

// keyedChange is one change made as a statement and as typed operations:
// either way it hands the DML hook rows rows and holds locks row locks.
type keyedChange struct {
	name        string
	sql         string
	args        []Value
	rows, locks int
	typed       func(tx *Txn, tbl *Table) error
}

var keyedChanges = []keyedChange{
	{"TypedInsert", `INSERT INTO files (path, mode, version, size) VALUES (?, ?, ?, ?)`,
		[]Value{Str("/c"), Str("rfd"), Int(0), Int(3)}, 1, 1, // the INT is coerced to the FLOAT column
		func(tx *Txn, tbl *Table) error {
			_, err := tx.InsertRow(tbl, Row{Str("/c"), Str("rfd"), Int(0), Int(3)})
			return err
		}},
	{"TypedUpdateByKey", `UPDATE files SET version = ? WHERE path = ?`,
		[]Value{Int(7), Str("/a")}, 1, 1,
		func(tx *Txn, tbl *Table) error {
			id, row, found, err := tx.LockKey(tbl, Str("/a"), LockX)
			if err != nil || !found {
				return fmt.Errorf("lock /a: found %v, %v", found, err)
			}
			row = row.Clone()
			row[2] = Int(7)
			return tx.UpdateRow(tbl, id, row)
		}},
	{"TypedDeleteByKey", `DELETE FROM files WHERE path = ?`,
		[]Value{Str("/b")}, 1, 1,
		func(tx *Txn, tbl *Table) error {
			found, err := tx.DeleteKey(tbl, Str("/b"))
			if !found && err == nil {
				err = errors.New("/b not found")
			}
			return err
		}},
	// The DLFM's schema and recovery run these typed: the DDL of its
	// dlfm_files table, a drop of a table with rows and a secondary index,
	// and a clear of a table by key.
	{"TypedCreateTable", `CREATE TABLE dlfm_files (
		path VARCHAR PRIMARY KEY,
		mode VARCHAR NOT NULL,
		recovery BOOLEAN NOT NULL,
		token_ttl INT,
		orig_uid INT NOT NULL,
		orig_mode INT NOT NULL,
		cur_version INT NOT NULL
	)`, nil, 0, 0,
		func(tx *Txn, _ *Table) error {
			notNull := func(name string, k Kind) Column { return Column{Name: name, Kind: k, NotNull: true} }
			return tx.CreateTable("dlfm_files", []Column{
				{Name: "path", Kind: KindString, PrimaryKey: true, NotNull: true},
				notNull("mode", KindString),
				notNull("recovery", KindBool),
				{Name: "token_ttl", Kind: KindInt},
				notNull("orig_uid", KindInt),
				notNull("orig_mode", KindInt),
				notNull("cur_version", KindInt),
			})
		}},
	{"TypedDropTable", `DROP TABLE files`, nil, 2, 0,
		func(tx *Txn, _ *Table) error { return tx.DropTable("files") }},
	{"TypedClearByKey", `DELETE FROM files`, nil, 2, 2,
		func(tx *Txn, tbl *Table) error {
			for _, key := range []string{"/a", "/b"} {
				if found, err := tx.DeleteKey(tbl, Str(key)); err != nil || !found {
					return fmt.Errorf("delete %s: found %v, %v", key, found, err)
				}
			}
			return nil
		}},
}

// keyedRun makes change c in a fresh transaction on db, as SQL or typed, and
// returns the transaction, its log records and the row locks it holds.
func keyedRun(t *testing.T, db *DB, c keyedChange, typed bool) (*Txn, []wal.Record, int) {
	t.Helper()
	from := db.Log().TailLSN() + 1
	tx := db.Begin()
	var err error
	if typed {
		tbl, terr := db.Table("files")
		if terr != nil {
			t.Fatal(terr)
		}
		err = c.typed(tx, tbl)
	} else {
		_, err = tx.Exec(c.sql, c.args...)
	}
	if err != nil {
		t.Fatalf("%s (typed %v): %v", c.name, typed, err)
	}
	var recs []wal.Record
	db.Log().Scan(from, wal.NilLSN, func(r wal.Record) bool {
		r.Payload = bytes.Clone(r.Payload) // valid only during the call
		recs = append(recs, r)
		return true
	})
	return tx, recs, rowLocksHeld(db, tx)
}

// dumpTables renders every table: its columns, which of them are indexed,
// and its rows with their ids.
func dumpTables(db *DB) string {
	out := ""
	for _, name := range db.TableNames() {
		tbl, _ := db.Table(name)
		out += fmt.Sprintf("%s%+v ", name, tbl.Columns)
		for col := range tbl.Columns {
			if tbl.HasIndex(col) {
				out += fmt.Sprintf("index(%d) ", col)
			}
		}
		tbl.Scan(func(id RowID, r Row) bool {
			out += fmt.Sprintf("%d:%v ", id, r)
			return true
		})
	}
	return out
}

func TestTypedOpsMatchTheirStatements(t *testing.T) {
	for _, c := range keyedChanges {
		t.Run(c.name, func(t *testing.T) {
			var sqlHooks, typedHooks []string
			sqlDB, typedDB := keyedDB(t, &sqlHooks), keyedDB(t, &typedHooks)
			seed := dumpTables(sqlDB)

			sqlTx, sqlRecs, sqlLocks := keyedRun(t, sqlDB, c, false)
			typedTx, typedRecs, typedLocks := keyedRun(t, typedDB, c, true)
			if len(typedRecs) == 0 || !reflect.DeepEqual(sqlRecs, typedRecs) {
				t.Fatalf("log records differ:\nSQL   %+v\ntyped %+v", sqlRecs, typedRecs)
			}
			if sqlLocks != c.locks || typedLocks != c.locks {
				t.Fatalf("row locks held before commit: SQL %d, typed %d, want %d each", sqlLocks, typedLocks, c.locks)
			}
			if !reflect.DeepEqual(sqlHooks, typedHooks) || len(typedHooks) != c.rows {
				t.Fatalf("DML hook calls differ:\nSQL   %v\ntyped %v", sqlHooks, typedHooks)
			}
			if err := sqlTx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := typedTx.Commit(); err != nil {
				t.Fatal(err)
			}
			if n := rowLocksHeld(typedDB, typedTx); n != 0 {
				t.Fatalf("%d row locks held after the commit", n)
			}
			want := dumpTables(sqlDB)
			if got := dumpTables(typedDB); got != want || got == seed {
				t.Fatalf("tables differ after commit:\nSQL   %s\ntyped %s", want, got)
			}
			for _, db := range []*DB{sqlDB, typedDB} {
				recovered, _ := recoverDB(t, db)
				if got := dumpTables(recovered); got != want {
					t.Fatalf("recovery of a change's log (typed %v):\ngot  %s\nwant %s", db == typedDB, got, want)
				}
			}

			// An abort undoes the typed change as it does the statement's.
			var hooks []string
			for _, typed := range []bool{false, true} {
				db := keyedDB(t, &hooks)
				tx, _, _ := keyedRun(t, db, c, typed)
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				if got := dumpTables(db); got != seed {
					t.Fatalf("abort (typed %v) left %s, want %s", typed, got, seed)
				}
			}
		})
	}
}

// Both ways refuse a duplicate key, a value of the wrong kind and a NULL in
// a NOT NULL column, and the refused change leaves the table as it was.
func TestTypedOpsRefuseWhatTheirStatementsRefuse(t *testing.T) {
	var hooks []string
	db := keyedDB(t, &hooks)
	tbl, err := db.Table("files")
	if err != nil {
		t.Fatal(err)
	}
	seed := dumpTables(db)
	insert := `INSERT INTO files (path, mode, version, size) VALUES (?, ?, ?, ?)`
	for _, c := range []struct {
		name string
		sql  string
		row  Row
		dup  bool
	}{
		{"KeyDuplicate", insert, Row{Str("/a"), Str("rfd"), Int(0), Null()}, true},
		{"KeyWrongKind", insert, Row{Str("/d"), Str("rfd"), Str("zero"), Null()}, false},
		{"KeyNullInNotNull", insert, Row{Str("/d"), Null(), Int(0), Null()}, false},
	} {
		_, sqlErr := db.Exec(c.sql, c.row...)
		tx := db.Begin()
		_, typedErr := tx.InsertRow(tbl, c.row.Clone())
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if sqlErr == nil || typedErr == nil {
			t.Fatalf("%s: SQL %v, typed %v; want both refused", c.name, sqlErr, typedErr)
		}
		if c.dup && (!errors.Is(sqlErr, ErrDuplicateKey) || !errors.Is(typedErr, ErrDuplicateKey)) {
			t.Fatalf("%s: SQL %v, typed %v; want ErrDuplicateKey", c.name, sqlErr, typedErr)
		}
	}
	for _, c := range []struct {
		name string
		set  string
		col  int
		v    Value
	}{
		{"KeyUpdateWrongKind", "version", 2, Str("zero")},
		{"KeyUpdateNullInNotNull", "mode", 1, Null()},
	} {
		_, sqlErr := db.Exec(`UPDATE files SET `+c.set+` = ? WHERE path = ?`, c.v, Str("/a"))
		tx := db.Begin()
		id, row, found, err := tx.LockKey(tbl, Str("/a"), LockX)
		if err != nil || !found {
			t.Fatalf("lock /a: found %v, %v", found, err)
		}
		row = row.Clone()
		row[c.col] = c.v
		typedErr := tx.UpdateRow(tbl, id, row)
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if sqlErr == nil || typedErr == nil {
			t.Fatalf("%s: SQL %v, typed %v; want both refused", c.name, sqlErr, typedErr)
		}
	}
	if got := dumpTables(db); got != seed {
		t.Fatalf("refused changes left %s, want %s", got, seed)
	}
}

// LockKey coerces the key as a WHERE literal is, finds nothing for a key no
// row holds, and refuses a finished transaction and a table without a
// primary key.
func TestLockKeyEdges(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `CREATE TABLE heap (v INT)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 10)`)
	n, _ := db.Table("n")
	heap, _ := db.Table("heap")
	tx := db.Begin()
	if _, row, found, err := tx.LockKey(n, Float(1), LockS); err != nil || !found || row[1].I != 10 {
		t.Fatalf("LockKey(1.0) = %v, %v, %v; want the row of key 1", row, found, err)
	}
	if _, _, found, err := tx.LockKey(n, Int(2), LockS); err != nil || found {
		t.Fatalf("LockKey(2) = %v, %v; want not found", found, err)
	}
	if _, _, _, err := tx.LockKey(heap, Int(1), LockS); err == nil {
		t.Fatal("LockKey on a table without a primary key succeeded")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tx.LockKey(n, Int(1), LockX); !errors.Is(err, errTxnDone) {
		t.Fatalf("LockKey after commit: %v, want errTxnDone", err)
	}
	if n := rowLocksHeld(db, tx); n != 0 {
		t.Fatalf("a finished transaction holds %d row locks", n)
	}
}

// A LockKey that waits for the lock re-checks the key: a row the holder
// re-keys meanwhile is no match, as for `WHERE <primary key> = ?`.
func TestLockKeyRechecksTheKeyAfterItsWait(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 10)`)
	tbl, _ := db.Table("n")
	holder := db.Begin()
	if _, err := holder.Query(`SELECT * FROM n WHERE id = 1 FOR UPDATE`); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	waiter := db.Begin()
	go func() {
		_, _, found, err := waiter.LockKey(tbl, Int(1), LockX)
		if err == nil && found {
			err = errors.New("found the re-keyed row under its old key")
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // the waiter found key 1 and waits for its lock
	if _, err := holder.Exec(`UPDATE n SET id = 2 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := waiter.Commit(); err != nil {
		t.Fatal(err)
	}
}
