package seglog_test

// Golden on-disk fixtures: the "formats unchanged" claim, checked. The dirs
// under testdata/golden were written by the code as it stood BEFORE the four
// durable logs were ported onto seglog (run with -update-golden at that
// commit). Each fixture is checked twice: a fresh write of the same inputs by
// the current code must be byte-identical to it, and a copy of it opened by
// the current code must recover exactly the records, stats and torn-byte
// counts pinned below.
//
// Two fixtures are the two sides of a format change instead. repo is the
// gob era: sqlmini logged gob payloads until PR 18, nothing writes those any
// more, so it has no writer and is only opened and recovered. repo-v2 is the
// same kind of repository written by PR 18's fixed-layout payload codec and
// segment-sealing checkpoint, checked both ways.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"datalinks/internal/catalog"
	"datalinks/internal/chunkdisk"
	"datalinks/internal/datalink"
	"datalinks/internal/extent"
	"datalinks/internal/seglog"
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the code under test")

func TestGoldenFixtures(t *testing.T) {
	// repo-v2 runs first: repo.snap is a gob stream, whose user type ids are
	// handed out per process in order of first use — the write must see the
	// same fresh process state the fixture's writer saw.
	fixtures := []struct {
		name  string
		write func(t *testing.T, dir string) // nil: read-only fixture
		check func(t *testing.T, dir string)
	}{
		{"repo-v2", writeRepoV2, checkRepoV2},
		{"repo", nil, checkRepo},
		{"wal", writeWAL, checkWAL},
		{"catalog", writeCatalog, checkCatalog},
		{"chunks", writeChunks, checkChunks},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "golden", fx.name)
			if fx.write != nil {
				checkFreshWrite(t, golden, fx.write)
			}
			if len(readDir(t, golden)) == 0 {
				t.Fatalf("fixture %s is empty", golden)
			}
			work := filepath.Join(t.TempDir(), "work")
			copyDir(t, golden, work)
			fx.check(t, work)
		})
	}
}

// checkFreshWrite holds what write produces today to the golden files, byte
// for byte (and replaces them first under -update-golden).
func checkFreshWrite(t *testing.T, golden string, write func(t *testing.T, dir string)) {
	fresh := filepath.Join(t.TempDir(), "fresh")
	mkdir(t, fresh)
	write(t, fresh)
	if *updateGolden {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
		copyDir(t, fresh, golden)
	}
	want, got := readDir(t, golden), readDir(t, fresh)
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: fresh write differs from the golden file (%d vs %d bytes)", name, len(got[name]), len(data))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: fresh write produced a file the fixture does not have", name)
		}
	}
}

// --- wal: two segments, the second torn inside its last frame ---

func walPayload(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i)}, 40+i)
}

func writeWAL(t *testing.T, dir string) {
	l, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rec := wal.Record{Type: wal.RecUpdate, TxnID: 7, PrevLSN: wal.LSN(i), UndoLSN: wal.LSN(i / 2), Payload: walPayload(i)}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	tear(t, lastMatch(t, dir, "wal-*.log"), 9)
}

func checkWAL(t *testing.T, dir string) {
	if segs := matches(t, dir, "wal-*.log"); len(segs) != 2 {
		t.Fatalf("fixture has segments %v, want two", segs)
	}
	l, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Base() != 0 || l.TailLSN() != 5 || l.TornBytes() != 49 {
		t.Fatalf("base=%d tail=%d torn=%d, want 0/5/49", l.Base(), l.TailLSN(), l.TornBytes())
	}
	n := 0
	if err := l.Scan(wal.NilLSN, wal.NilLSN, func(r wal.Record) bool {
		if r.LSN != wal.LSN(n+1) || r.Type != wal.RecUpdate || r.TxnID != 7 || r.PrevLSN != wal.LSN(n) ||
			r.UndoLSN != wal.LSN(n/2) || !bytes.Equal(r.Payload, walPayload(n)) {
			t.Errorf("record %d replayed as %+v", n+1, r)
		}
		n++
		return true
	}); err != nil || n != 5 {
		t.Fatalf("scanned %d records (%v), want 5", n, err)
	}
	if torn := readFile(t, filepath.Join(dir, "wal.torn")); len(torn) != 49 {
		t.Fatalf("wal.torn holds %d bytes, want 49", len(torn))
	}
}

// --- repo-v2: a checkpointed sqlmini repository (repo.snap + WAL tail) ---

// goldenTime is the TIMESTAMP the v2 fixture logs.
var goldenTime = time.Date(2001, 4, 2, 9, 30, 0, 123456789, time.UTC)

// writeRepoV2 logs every payload op and every value kind after a checkpoint,
// across a segment rotation, and tears the last transaction's commit record.
func writeRepoV2(t *testing.T, dir string) {
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	db := sqlmini.NewDB(sqlmini.Options{Log: lg, Dir: dir})
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 1; i <= 20; i++ {
		db.MustExec(`INSERT INTO t VALUES (?, 'x')`, sqlmini.Int(int64(i)))
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	db.MustExec(`UPDATE t SET v = 'y' WHERE id = 7`)
	db.MustExec(`DELETE FROM t WHERE id = 20`)
	db.MustExec(`CREATE TABLE k (id INT PRIMARY KEY, f DOUBLE, b BOOLEAN NOT NULL, ts TIMESTAMP,
		doc DATALINK MODE RDD RECOVERY YES TOKEN 300, note VARCHAR)`)
	db.MustExec(`CREATE INDEX ON k (note)`)
	db.MustExec(`INSERT INTO k VALUES (-5, 2.5, TRUE, ?, ?, NULL)`, sqlmini.Time(goldenTime),
		sqlmini.Link(datalink.Link{Server: "fs1", Path: "/golden/file"}))
	db.MustExec(`CREATE TABLE gone (id INT)`)
	db.MustExec(`DROP TABLE gone`)
	db.MustExec(`INSERT INTO t VALUES (21, 'tail')`)
	lg.Close()
	tear(t, lastMatch(t, dir, "wal-*.log"), 3)
}

func checkRepoV2(t *testing.T, dir string) {
	if segs := matches(t, dir, "wal-*.log"); len(segs) != 2 {
		t.Fatalf("fixture has segments %v, want two", segs)
	}
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	// The checkpoint sealed its segment, so the log starts exactly at the
	// anchor; the tear cut the last transaction's commit record, so recovery
	// rolls it back.
	if lg.Base() != 63 || lg.TailLSN() != 87 || lg.TornBytes() != 10 {
		t.Fatalf("base=%d tail=%d torn=%d, want 63/87/10", lg.Base(), lg.TailLSN(), lg.TornBytes())
	}
	db, rep, err := sqlmini.Recover(lg, sqlmini.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rep.CommittedTxns, func(i, j int) bool { return rep.CommittedTxns[i] < rep.CommittedTxns[j] })
	want := sqlmini.RecoveryReport{RecordsScanned: 24, Redone: 8, AnchorLSN: 63, SnapshotUsed: true,
		LoserTxns: []uint64{29}, InDoubtTxns: nil, CommittedTxns: []uint64{22, 23, 24, 25, 26, 27, 28}}
	if !reflect.DeepEqual(*rep, want) {
		t.Fatalf("recovery report %+v, want %+v", *rep, want)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil || rows.Data[0][0].I != 19 {
		t.Fatalf("row count after recovery: %v %+v, want 19", err, rows)
	}
	rows, err = db.Query(`SELECT v FROM t WHERE id = 7`)
	if err != nil || rows.Data[0][0].S != "y" {
		t.Fatalf("post-checkpoint update lost: %v %+v", err, rows)
	}
	rows, err = db.Query(`SELECT * FROM k`)
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("table k after recovery: %v %+v", err, rows)
	}
	r := rows.Data[0]
	if r[0].I != -5 || r[1].F != 2.5 || !r[2].B || !r[3].T.Equal(goldenTime) ||
		r[4].L != (datalink.Link{Server: "fs1", Path: "/golden/file"}) || !r[5].IsNull() {
		t.Fatalf("row of k replayed as %+v", r)
	}
	k, err := db.Table("k")
	if err != nil || !k.HasIndex(k.ColIndex("note")) {
		t.Fatalf("index on k(note) not rebuilt (%v)", err)
	}
	if doc := k.Columns[k.ColIndex("doc")]; doc.DL != (datalink.ColumnOptions{Mode: datalink.RDD, Recovery: true, TokenTTLSecs: 300}) || !k.Columns[2].NotNull {
		t.Fatalf("columns of k replayed as %+v", k.Columns)
	}
	if _, err := db.Table("gone"); err == nil {
		t.Fatal("dropped table is back")
	}
}

// --- repo: the gob-era repository, read-only ---

// The fixture was written by the code before PR 18 from the inputs of
// writeRepoV2 less everything between the UPDATE and the last INSERT, with a
// 512-byte segment bound; its log payloads are gob streams.
func checkRepo(t *testing.T, dir string) {
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	// The checkpoint truncated the head to the anchor's segment; the tear cut
	// the last transaction's commit record, so recovery rolls it back.
	if lg.Base() != 63 || lg.TailLSN() != 69 || lg.TornBytes() != 10 {
		t.Fatalf("base=%d tail=%d torn=%d, want 63/69/10", lg.Base(), lg.TailLSN(), lg.TornBytes())
	}
	db, rep, err := sqlmini.Recover(lg, sqlmini.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := sqlmini.RecoveryReport{RecordsScanned: 6, Redone: 2, AnchorLSN: 63, SnapshotUsed: true,
		LoserTxns: []uint64{23}, InDoubtTxns: nil, CommittedTxns: []uint64{22}}
	if !reflect.DeepEqual(*rep, want) {
		t.Fatalf("recovery report %+v, want %+v", *rep, want)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil || rows.Data[0][0].I != 20 {
		t.Fatalf("row count after recovery: %v %+v, want 20", err, rows)
	}
	rows, err = db.Query(`SELECT v FROM t WHERE id = 7`)
	if err != nil || rows.Data[0][0].S != "y" {
		t.Fatalf("post-checkpoint update lost: %v %+v", err, rows)
	}
}

// A log changes payload format in the middle: the gob-era fixture is opened,
// recovery rolls back its loser — whose update record is gob and whose
// compensation record is therefore the first fixed-layout payload in the log
// — new transactions are committed behind it, and a crash replays the lot.
func TestGobEraRepoTakesNewRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "work")
	copyDir(t, filepath.Join("testdata", "golden", "repo"), dir)
	// Recovery ends with a checkpoint, which would truncate the records this
	// test wants to look at (and replay again): a directory in the way of
	// the snapshot's temp file makes that best-effort checkpoint fail.
	blocker := filepath.Join(dir, "repo.snap"+seglog.TmpSuffix)
	mkdir(t, filepath.Join(blocker, "x"))

	open := func() (*wal.Log, *sqlmini.DB, *sqlmini.RecoveryReport) {
		lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		db, rep, err := sqlmini.Recover(lg, sqlmini.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return lg, db, rep
	}
	// formats counts a transaction's row-change payloads of each era, per
	// record type.
	formats := func(lg *wal.Log, txn uint64) (gob, fixed map[wal.RecType]int) {
		gob, fixed = map[wal.RecType]int{}, map[wal.RecType]int{}
		lg.Scan(wal.NilLSN, wal.NilLSN, func(r wal.Record) bool {
			if (r.Type == wal.RecUpdate || r.Type == wal.RecCLR) && r.TxnID == txn {
				if r.Payload[0] == 0x00 {
					fixed[r.Type]++
				} else {
					gob[r.Type]++
				}
			}
			return true
		})
		return gob, fixed
	}

	lg, db, rep := open()
	if len(rep.LoserTxns) != 1 || rep.LoserTxns[0] != 23 {
		t.Fatalf("losers %v, want the fixture's transaction 23", rep.LoserTxns)
	}
	if gob, fixed := formats(lg, 23); gob[wal.RecUpdate] != 1 || fixed[wal.RecCLR] != 1 || len(gob)+len(fixed) != 2 {
		t.Fatalf("transaction 23 across the boundary: gob %v, fixed-layout %v; want one gob update undone by one fixed-layout CLR", gob, fixed)
	}
	if rows, err := db.Query(`SELECT id FROM t WHERE id = 21`); err != nil || len(rows.Data) != 0 {
		t.Fatalf("the loser's insert survived its rollback: %v %+v", err, rows)
	}
	db.MustExec(`INSERT INTO t VALUES (30, 'new')`)
	db.MustExec(`UPDATE t SET v = 'z' WHERE id = 7`)
	db.MustExec(`DELETE FROM t WHERE id = 1`)
	db.MustExec(`CREATE TABLE u (id INT PRIMARY KEY, at TIMESTAMP)`)
	db.MustExec(`INSERT INTO u VALUES (1, ?)`, sqlmini.Time(goldenTime))
	lg.Kill()
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	lg, db, rep = open()
	defer lg.Close()
	// Two gob records and the CLR, then the five new ones.
	if rep.AnchorLSN != 63 || !rep.SnapshotUsed || rep.Redone != 8 {
		t.Fatalf("replay of the mixed log: %+v", rep)
	}
	for sql, want := range map[string]string{
		`SELECT COUNT(*) FROM t`:        "20",
		`SELECT v FROM t WHERE id = 7`:  "z",
		`SELECT v FROM t WHERE id = 30`: "new",
		`SELECT COUNT(*) FROM u`:        "1",
	} {
		if rows, err := db.Query(sql); err != nil || len(rows.Data) != 1 || rows.Data[0][0].String() != want {
			t.Errorf("%s: %v %+v, want %s", sql, err, rows, want)
		}
	}
	for _, gone := range []int64{1, 21} {
		if rows, err := db.Query(`SELECT id FROM t WHERE id = ?`, sqlmini.Int(gone)); err != nil || len(rows.Data) != 0 {
			t.Errorf("row %d is back: %v %+v", gone, err, rows)
		}
	}
	if rows, err := db.Query(`SELECT at FROM u`); err != nil || !rows.Data[0][0].T.Equal(goldenTime) {
		t.Errorf("u.at replayed as %+v (%v)", rows, err)
	}
}

// --- catalog: snapshot + log with stale-sequence records and a torn tail ---

func catalogRec(v int64) *catalog.PutRec {
	r := &catalog.PutRec{
		Key: "fs1\x00/golden/file", Version: v, StateID: uint64(100 + v), Size: 1000 * v,
		StoredUnixNano: 1_700_000_000_000_000_000 + v, NChunks: 2, TailLen: 7,
		TailHash: sha256.Sum256([]byte{byte(v)}), IsFull: v == 1,
	}
	if r.IsFull {
		r.Full = []extent.Hash{sha256.Sum256([]byte{1, byte(v)}), sha256.Sum256([]byte{2, byte(v)})}
	} else {
		r.Mods = []catalog.Mod{{Idx: 1, Hash: sha256.Sum256([]byte{3, byte(v)})}}
	}
	return r
}

func writeCatalog(t *testing.T, dir string) {
	c, err := catalog.Open(dir, catalog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendPuts := func(from, to int64) {
		for v := from; v <= to; v++ {
			if err := c.AppendPut(catalogRec(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	logPath := filepath.Join(dir, "catalog.log")
	appendPuts(1, 3)
	stale := readFile(t, logPath)
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	appendPuts(4, 5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash the snapshot's sequence gate exists for: the snapshot was
	// renamed into place but the log it covers was never truncated.
	if err := os.WriteFile(logPath, append(stale, readFile(t, logPath)...), 0o644); err != nil {
		t.Fatal(err)
	}
	tear(t, logPath, 11)
}

func checkCatalog(t *testing.T, dir string) {
	c, err := catalog.Open(dir, catalog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := catalog.OpenStats{SnapshotRecords: 3, LogRecords: 1, StaleSkipped: 3, TornBytes: 98, Keys: 1, Versions: 4}
	if got := c.Stats(); got != want {
		t.Fatalf("open stats %+v, want %+v", got, want)
	}
	hist := c.History("fs1\x00/golden/file")
	if len(hist) != 4 {
		t.Fatalf("replayed %d versions, want 4", len(hist))
	}
	for i, got := range hist {
		if want := catalogRec(int64(i + 1)); !reflect.DeepEqual(got, want) {
			t.Errorf("version %d replayed as %+v", i+1, *got)
		}
	}
	if torn := readFile(t, filepath.Join(dir, "catalog.torn")); len(torn) != 98 {
		t.Fatalf("catalog.torn holds %d bytes, want 98", len(torn))
	}
}

// --- chunks: a sealed pack, an unsealed pack with a torn tail, a loose blob ---

var chunksConfig = chunkdisk.Config{MemoryBudget: 16, Compress: true, PackThreshold: 1024, PackTargetBytes: 2048}

// chunkBlob builds blob i: blob 0 is compressible (it becomes the fixture's
// flate-compressed pack record), blob 9 exceeds the pack threshold and goes
// loose, the rest are incompressible pack records.
func chunkBlob(i int) ([]byte, extent.Hash) {
	size := 600 + 10*i
	if i == 9 {
		size = 1500
	}
	data := make([]byte, size)
	if i > 0 {
		var block [32]byte
		for off := 0; off < size; off += len(block) {
			block = sha256.Sum256(append(block[:], byte(i)))
			copy(data[off:], block[:])
		}
	}
	return data, sha256.Sum256(data)
}

func writeChunks(t *testing.T, dir string) {
	cfg := chunksConfig
	cfg.Dir = dir
	s, err := chunkdisk.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2, 3, 9, 4, 5} {
		data, h := chunkBlob(i)
		c := extent.WrapChunk(data, h)
		_, err := s.Put(h, c)
		c.ReleaseChunk()
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Crash() // the active pack is never sealed
	tear(t, lastMatch(t, dir, "pack-*.pk"), 13)
}

func checkChunks(t *testing.T, dir string) {
	cfg := chunksConfig
	cfg.Dir = dir
	s, err := chunkdisk.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := chunkdisk.Stats{DiskBlobs: 6, DiskBytes: 4012, DiskLogicalBytes: 4600, DeadBlobs: 6, PackFiles: 2, PackTornBytes: 682}
	if got := s.Stats(); got != want {
		t.Fatalf("open stats %+v, want %+v", got, want)
	}
	for _, i := range []int{0, 1, 2, 3, 9, 4} {
		data, h := chunkBlob(i)
		if !s.Ref(h) {
			t.Fatalf("blob %d not adopted", i)
		}
		c, err := s.Get(h)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		if !bytes.Equal(c.Data(), data) {
			t.Errorf("blob %d diverged", i)
		}
		c.ReleaseChunk()
	}
	if _, h := chunkBlob(5); s.Ref(h) {
		t.Fatal("the torn record was adopted")
	}
	if torn := readFile(t, lastMatch(t, dir, "pack-*.pk")+".torn"); len(torn) != 682 {
		t.Fatalf("pack quarantine holds %d bytes, want 682", len(torn))
	}
}

// --- helpers ---

func mkdir(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tear cuts n bytes off the end of a file: a crash mid-append.
func tear(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func matches(t *testing.T, dir, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m)
	return m
}

func lastMatch(t *testing.T, dir, pattern string) string {
	t.Helper()
	m := matches(t, dir, pattern)
	if len(m) == 0 {
		t.Fatalf("no %s in %s", pattern, dir)
	}
	return m[len(m)-1]
}

// readDir maps every regular file under root (slash-separated relative path)
// to its contents.
func readDir(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = readFile(t, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	for name, data := range readDir(t, src) {
		path := filepath.Join(dst, filepath.FromSlash(name))
		mkdir(t, filepath.Dir(path))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
