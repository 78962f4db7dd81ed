package sqlmini

import (
	"slices"
	"testing"
	"unsafe"

	"datalinks/internal/wal"
)

// undoRig is a table t of rows (1, 10) and (2, 20), committed, and a
// transaction that then updates row 1, inserts row 3 and deletes row 2.
func undoRig(t *testing.T, db *DB) *Txn {
	t.Helper()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20)`)
	txn := db.Begin()
	for _, stmt := range []string{`UPDATE t SET v = 11 WHERE id = 1`, `INSERT INTO t VALUES (3, 30)`, `DELETE FROM t WHERE id = 2`} {
		if _, err := txn.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return txn
}

// checkUndone asserts t holds exactly the committed rows again.
func checkUndone(t *testing.T, db *DB) {
	t.Helper()
	rows := mustQuery(t, db, `SELECT id, v FROM t ORDER BY id`)
	if len(rows.Data) != 2 || rows.Data[0][0].I != 1 || rows.Data[0][1].I != 10 || rows.Data[1][0].I != 2 || rows.Data[1][1].I != 20 {
		t.Fatalf("rows after the undo: %+v, want (1, 10), (2, 20)", rows.Data)
	}
}

// records returns the types of txn id's records in the log from LSN from on.
func records(t *testing.T, db *DB, from wal.LSN, id uint64) []wal.RecType {
	t.Helper()
	var types []wal.RecType
	if err := db.Log().Scan(from, wal.NilLSN, func(r wal.Record) bool {
		if r.TxnID == id {
			types = append(types, r.Type)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

// An abort undoes from the transaction's own list, not from the log: with
// its records written, sealed off and truncated out of the log, it still
// puts every row back and logs a CLR per change, then its END.
func TestUndoAfterHeadTruncation(t *testing.T) {
	db := testDB(t)
	txn := undoRig(t, db)
	lg := db.Log()
	if _, err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := lg.SealSegment(); err != nil {
		t.Fatal(err)
	}
	cut := lg.TailLSN() + 1
	if err := lg.TruncateHead(cut); err != nil {
		t.Fatal(err)
	}
	if lg.Base() != cut-1 {
		t.Fatalf("base %d after TruncateHead(%d): the transaction's records are still in the log", lg.Base(), cut)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	checkUndone(t, db)
	if got := records(t, db, cut, txn.ID()); !slices.Equal(got, []wal.RecType{wal.RecAbort, wal.RecCLR, wal.RecCLR, wal.RecCLR, wal.RecEnd}) {
		t.Fatalf("the abort logged %v, want ABORT, three CLRs, END", got)
	}
}

// A transaction recovered in doubt is resolved by abort through the same
// rollback as a live one: its undo list is rebuilt by the recovery scan,
// the rows come back, the CLRs and END are logged, and once they are
// written a second recovery finds it finished.
func TestInDoubtAbortUndoesTheRecoveredList(t *testing.T) {
	db := testDB(t)
	txn := undoRig(t, db)
	if err := txn.Prepare(Row{Int(99)}); err != nil {
		t.Fatal(err)
	}
	db2, rep := recoverDB(t, db)
	if len(rep.InDoubtTxns) != 1 || rep.InDoubtTxns[0] != txn.ID() {
		t.Fatalf("in doubt after recovery: %v", rep.InDoubtTxns)
	}
	from := db2.Log().TailLSN() + 1
	if err := db2.ResolveInDoubt(txn.ID(), false); err != nil {
		t.Fatal(err)
	}
	checkUndone(t, db2)
	if got := records(t, db2, from, txn.ID()); !slices.Equal(got, []wal.RecType{wal.RecAbort, wal.RecCLR, wal.RecCLR, wal.RecCLR, wal.RecEnd}) {
		t.Fatalf("resolving by abort logged %v, want ABORT, three CLRs, END", got)
	}
	// An abort forces nothing; flushed, it is finished for good.
	tail, err := db2.Log().Flush()
	if err != nil {
		t.Fatal(err)
	}
	db3, rep := recoverDB(t, db2)
	if len(rep.InDoubtTxns)+len(rep.LoserTxns) != 0 || db3.Log().TailLSN() != tail {
		t.Fatalf("second recovery: in doubt %v, losers %v, tail %d -> %d", rep.InDoubtTxns, rep.LoserTxns, tail, db3.Log().TailLSN())
	}
	checkUndone(t, db3)
}

// A crash in the middle of an abort leaves CLRs for the newest changes:
// recovery takes the changes they compensated off the loser's list and
// undoes only the rest, one CLR each.
func TestUndoSkipsCompensatedChanges(t *testing.T) {
	db := testDB(t)
	txn := undoRig(t, db)
	// Compensate the newest change (the delete of row 2) by hand, as an
	// abort that crashed after its first CLR would have.
	tl := txn.log
	newest := &tl.undo[len(tl.undo)-1]
	abort, err := db.Log().Append(wal.Record{Type: wal.RecAbort, TxnID: txn.ID(), PrevLSN: txn.lastLSN})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.undoOne(tl, newest, txn.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	db2, rep := recoverDB(t, db)
	if len(rep.LoserTxns) != 1 {
		t.Fatalf("losers %v, want the interrupted abort", rep.LoserTxns)
	}
	checkUndone(t, db2)
	if got := records(t, db2, abort+1, txn.ID()); !slices.Equal(got, []wal.RecType{wal.RecCLR, wal.RecCLR, wal.RecCLR, wal.RecEnd}) {
		t.Fatalf("after the abort record: %v, want the crashed abort's CLR, two more and END", got)
	}
}

// Every token SELECT allocates a Txn: it must stay within the 160-byte size
// class, so the undo list hangs off one pointer.
func TestTxnFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Txn{}); n > 160 {
		t.Fatalf("Txn is %d bytes, past the 160-byte size class", n)
	}
}
