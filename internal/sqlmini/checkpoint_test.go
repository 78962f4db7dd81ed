package sqlmini

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datalinks/internal/wal"
)

// diskDB opens a disk-backed database in dir with small segments so head
// truncation actually deletes files.
func diskDB(t *testing.T, dir string) *DB {
	t.Helper()
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	return NewDB(Options{Log: lg, Dir: dir, LockTimeout: 500 * time.Millisecond})
}

// reopenDisk kills the process state and cold-starts from the directory.
func reopenDisk(t *testing.T, db *DB, dir string) (*DB, *RecoveryReport) {
	t.Helper()
	db.Log().Kill()
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	db2, rep, err := Recover(lg, Options{Dir: dir, LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return db2, rep
}

func TestCheckpointDiskAnchoredRecovery(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'x')`, Int(int64(i)))
	}
	ok, err := db.Checkpoint()
	if err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "repo.snap")); err != nil {
		t.Fatalf("repo.snap missing: %v", err)
	}
	totalBefore := db.Log().TailLSN()
	// Tail after the checkpoint: a handful of records only.
	mustExec(t, db, `UPDATE t SET v = 'y' WHERE id = 7`)
	mustExec(t, db, `INSERT INTO t VALUES (41, 'tail')`)

	db2, rep := reopenDisk(t, db, dir)
	if !rep.SnapshotUsed || rep.AnchorLSN == wal.NilLSN {
		t.Fatalf("recovery ignored the snapshot: %+v", rep)
	}
	// O(tail), not O(history): the anchored scan must cover far fewer
	// records than were ever logged.
	if rep.RecordsScanned >= int(totalBefore) {
		t.Fatalf("RecordsScanned = %d, want « %d total", rep.RecordsScanned, totalBefore)
	}
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 41 {
		t.Fatalf("row count after recovery = %d, want 41", rows.Data[0][0].I)
	}
	rows = mustQuery(t, db2, `SELECT v FROM t WHERE id = 7`)
	if rows.Data[0][0].S != "y" {
		t.Fatalf("post-checkpoint update lost: %+v", rows.Data)
	}
}

// snapshotOnly runs a disk checkpoint up to and including the repo.snap
// replace — and with seal also the segment seal — then stops: the state a
// crash at that point leaves behind.
func snapshotOnly(t *testing.T, db *DB, dir string, seal bool) *dbSnapshot {
	t.Helper()
	snap, err := db.captureDurable()
	if err != nil || snap == nil {
		t.Fatalf("capture: %v (snapshot %v)", err, snap)
	}
	if err := writeSnapFile(dir, snap); err != nil {
		t.Fatal(err)
	}
	if seal {
		if err := db.log.SealSegment(); err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestCheckpointSequenceGate: a crash between the repo.snap replace and the
// segment seal leaves the new snapshot over a log that still holds every
// record since the previous anchor. If recovery replayed them on top of the
// snapshot, InsertAt would duplicate rows — the anchored scan is the gate,
// and this is its natural failure mode.
func TestCheckpointSequenceGate(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(int64(i*100)))
	}
	snap := snapshotOnly(t, db, dir, false)

	db.Log().Kill()
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-anchor records are still on disk and were replayed into the log.
	if lg.Base() != wal.NilLSN || lg.TailLSN() != snap.SnapLSN {
		t.Fatalf("log covers %d..%d, want the whole history up to the anchor %d", lg.Base()+1, lg.TailLSN(), snap.SnapLSN)
	}
	db2, rep, err := Recover(lg, Options{Dir: dir, LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotUsed || rep.AnchorLSN != snap.SnapLSN || rep.RecordsScanned != 0 {
		t.Fatalf("recovery did not anchor at the new snapshot: %+v", rep)
	}
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 10 {
		t.Fatalf("rows double-applied or lost: count = %d, want 10", rows.Data[0][0].I)
	}
}

// A crash between the segment seal and the checkpoint record leaves an empty
// trailing segment: the reopen keeps it and appends into it.
func TestCrashBetweenSealAndCheckpointRecord(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(int64(i)))
	}
	snap := snapshotOnly(t, db, dir, true)
	segs := walFiles(t, dir)
	empty := segs[len(segs)-1]
	if info, err := os.Stat(empty); err != nil || info.Size() != 0 || len(segs) < 2 {
		t.Fatalf("segments %v: want a sealed one and an empty trailing one (%v)", segs, err)
	}

	db2, rep := reopenDisk(t, db, dir)
	defer db2.Log().Close()
	if db2.Log().TornBytes() != 0 || rep.AnchorLSN != snap.SnapLSN || rep.RecordsScanned != 0 {
		t.Fatalf("reopen over the empty segment: torn=%d report=%+v", db2.Log().TornBytes(), rep)
	}
	mustExec(t, db2, `INSERT INTO t VALUES (11, 11)`)
	// Recovery's own checkpoint and the insert went into the empty segment,
	// and made every segment before it disposable.
	segs = walFiles(t, dir)
	if info, err := os.Stat(empty); err != nil || info.Size() == 0 || len(segs) != 1 {
		t.Fatalf("segments %v after the reopen: want only the once-empty one, now written (%v)", segs, err)
	}
	db3, _ := reopenDisk(t, db2, dir)
	defer db3.Log().Close()
	if rows := mustQuery(t, db3, `SELECT COUNT(*) FROM t`); rows.Data[0][0].I != 11 {
		t.Fatalf("count = %d, want 11", rows.Data[0][0].I)
	}
}

// A checkpoint seals its segment, so what a reopen replays is the records
// since the last checkpoint, not since the last 4 MiB boundary — with the
// default segment size the log never reaches one between checkpoints.
func TestCheckpointSealsSegment(t *testing.T) {
	dir := t.TempDir()
	lg, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(Options{Log: lg, Dir: dir, CheckpointBytes: 2048, LockTimeout: 500 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	checkpoints, id := 0, 0
	insert := func() {
		id++
		base := db.Log().Base()
		mustExec(t, db, `INSERT INTO t VALUES (?, 'some-padding-value-to-fill-the-log')`, Int(int64(id)))
		if db.Log().Base() != base {
			checkpoints++
		}
		if segs := walFiles(t, dir); len(segs) > 2 {
			t.Fatalf("after %d checkpoints the log is %d segments: %v", checkpoints, len(segs), segs)
		}
	}
	for checkpoints < 3 {
		if id > 1000 { // the trigger fires every ~20 inserts
			t.Fatalf("%d checkpoints moved the log base in %d inserts, want 3", checkpoints, id)
		}
		insert()
	}
	for i := 0; i < 5; i++ { // a tail after the last checkpoint, under the trigger
		insert()
	}
	snap, err := loadSnapFile(dir)
	if err != nil || snap == nil {
		t.Fatalf("repo.snap: %v", err)
	}
	if db.Log().Base() != snap.SnapLSN {
		t.Fatalf("log base %d, want the last anchor %d", db.Log().Base(), snap.SnapLSN)
	}
	// The checkpoint record and what followed it.
	sinceCheckpoint := int(db.Log().TailLSN() - snap.SnapLSN)

	db.Log().Kill()
	lg, err = wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if replayed := int(lg.TailLSN() - lg.Base()); replayed > sinceCheckpoint {
		t.Fatalf("open replayed %d records, %d were logged since the last checkpoint", replayed, sinceCheckpoint)
	}
	db2, rep, err := Recover(lg, Options{Dir: dir, LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if rep.RecordsScanned > sinceCheckpoint {
		t.Fatalf("recovery scanned %d records, %d were logged since the last checkpoint", rep.RecordsScanned, sinceCheckpoint)
	}
	if rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`); int(rows.Data[0][0].I) != id {
		t.Fatalf("count = %d, want %d", rows.Data[0][0].I, id)
	}
	if segs := walFiles(t, dir); len(segs) > 2 {
		t.Fatalf("the reopen left %d segments: %v", len(segs), segs)
	}
}

func TestCheckpointSkipsWhileBusy(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	txn := db.Begin()
	if _, err := txn.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	ok, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("checkpoint claimed success while a transaction was active")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	ok, err = db.Checkpoint()
	if err != nil || !ok {
		t.Fatalf("quiescent checkpoint: ok=%v err=%v", ok, err)
	}
}

func TestCheckpointMemoryAnchoredRecovery(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 1; i <= 30; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(int64(i)))
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	total := db.Log().TailLSN()
	mustExec(t, db, `UPDATE t SET v = 0 WHERE id = 3`)

	durable := db.Crash()
	db2, rep, err := Recover(durable, Options{LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotUsed {
		t.Fatal("embedded checkpoint not used")
	}
	if rep.RecordsScanned >= int(total) {
		t.Fatalf("RecordsScanned = %d, want « %d", rep.RecordsScanned, total)
	}
	rows := mustQuery(t, db2, `SELECT v FROM t WHERE id = 3`)
	if rows.Data[0][0].I != 0 {
		t.Fatalf("tail update lost: %+v", rows.Data)
	}
	rows = mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 30 {
		t.Fatalf("count = %d, want 30", rows.Data[0][0].I)
	}
}

func TestCheckpointAutomaticTrigger(t *testing.T) {
	dir := t.TempDir()
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(Options{Log: lg, Dir: dir, CheckpointBytes: 2048, LockTimeout: 500 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 1; i <= 60; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'some-padding-value-to-fill-the-log')`, Int(int64(i)))
	}
	if _, err := os.Stat(filepath.Join(dir, "repo.snap")); err != nil {
		t.Fatalf("automatic checkpoint never fired: %v", err)
	}
	if db.Log().SizeSinceCheckpoint() > 4096 {
		t.Fatalf("odometer not reset by automatic checkpoint: %d", db.Log().SizeSinceCheckpoint())
	}
}

func TestRecoverRefusesTruncatedLogWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 1; i <= 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?)`, Int(int64(i)))
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if db.Log().Base() == wal.NilLSN {
		t.Skip("no segment was truncated; cannot exercise the gate")
	}
	db.Log().Kill()
	if err := os.Remove(filepath.Join(dir, "repo.snap")); err != nil {
		t.Fatal(err)
	}
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(lg, Options{Dir: dir, LockTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("recovery accepted a truncated log with no snapshot")
	}
}

func TestRecoverRejectsOrphanRecord(t *testing.T) {
	lg := wal.New()
	p := encodePayload(logPayload{Op: opInsert, Table: "t", Row: 1})
	if _, err := lg.Append(wal.Record{Type: wal.RecUpdate, TxnID: 0, Payload: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	durable := lg.Crash()
	_, _, err := Recover(durable, Options{LockTimeout: 500 * time.Millisecond})
	if !errors.Is(err, ErrOrphanRecord) {
		t.Fatalf("err = %v, want ErrOrphanRecord", err)
	}
}

func TestRecoverRejectsOrphanCLR(t *testing.T) {
	lg := wal.New()
	p := encodePayload(logPayload{Op: opDelete, Table: "t", Row: 1})
	if _, err := lg.Append(wal.Record{Type: wal.RecCLR, TxnID: 0, Payload: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	durable := lg.Crash()
	_, _, err := Recover(durable, Options{LockTimeout: 500 * time.Millisecond})
	if !errors.Is(err, ErrOrphanRecord) {
		t.Fatalf("err = %v, want ErrOrphanRecord", err)
	}
}

// TestCheckpointRepeatedCycles runs several checkpoint/workload/kill rounds
// and verifies each cold start reconstructs the full state.
func TestCheckpointRepeatedCycles(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	next := 1
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(next)), Int(int64(next*7)))
			next++
		}
		if round%2 == 0 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		db2, _ := reopenDisk(t, db, dir)
		db = db2
		rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
		if got := int(rows.Data[0][0].I); got != next-1 {
			t.Fatalf("round %d: count = %d, want %d", round, got, next-1)
		}
	}
	db.Log().Close()
}

// TestCheckpointSnapshotFailureKeepsLogHead: a snapshot that cannot be
// replaced durably fails the checkpoint BEFORE anything depends on it — no
// reference record is logged and no segment the snapshot would have
// superseded is deleted.
func TestCheckpointSnapshotFailureKeepsLogHead(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Log().Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'x')`, Int(int64(i)))
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	tail := db.Log().TailLSN()
	// A non-empty directory where repo.snap belongs: the rename must fail.
	if err := os.MkdirAll(filepath.Join(dir, snapFileName, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Checkpoint(); err == nil || ok {
		t.Fatalf("checkpoint over an unreplaceable snapshot: ok=%v err=%v, want an error", ok, err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segsBefore) < 2 || len(segsAfter) != len(segsBefore) || db.Log().Base() != wal.NilLSN {
		t.Fatalf("failed checkpoint truncated the log: %d -> %d segments, base %d", len(segsBefore), len(segsAfter), db.Log().Base())
	}
	if db.Log().TailLSN() != tail {
		t.Fatalf("failed checkpoint logged a record: tail %d -> %d", tail, db.Log().TailLSN())
	}
}
