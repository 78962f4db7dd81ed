package seglog_test

// Golden on-disk fixtures: the "formats unchanged" claim, checked. The dirs
// under testdata/golden were written by the code as it stood BEFORE the four
// durable logs were ported onto seglog (run with -update-golden at that
// commit). Each fixture is checked twice: a fresh write of the same inputs by
// the current code must be byte-identical to it, and a copy of it opened by
// the current code must recover exactly the records, stats and torn-byte
// counts pinned below.
//
// repo-v3 is a checkpointed repository, its log payloads and repo.snap in the
// payload codec's fixed layout (a repository in the gob layout before it no
// longer opens). The chunks series is the sides of format changes instead;
// only its newest fixture has a writer, the older ones are only opened. chunks
// holds a blob in the loose one-file-per-hash layout and chunks-v2 is the same
// inputs with every blob packed, no pack footered; both hold blob 0 as a
// flate-compressed pack record, a form no store reads any more, so opening
// either is refused and changes nothing. chunks-v3 is the inputs written by
// the current code, every blob a raw record, the sealed packs footered and the
// crashed one not.

import (
	"bytes"
	"crypto/sha256"
	"errors"
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
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the code under test")

func TestGoldenFixtures(t *testing.T) {
	fixtures := []struct {
		name  string
		write func(t *testing.T, dir string) // nil: read-only fixture
		check func(t *testing.T, dir string)
	}{
		{"repo-v3", writeRepoV3, checkRepoV3},
		{"wal", writeWAL, checkWAL},
		{"catalog", writeCatalog, checkCatalog},
		{"catalog-v2", writeCatalogV2, checkCatalogV2},
		{"chunks", nil, checkChunks},
		{"chunks-v2", nil, checkChunksV2},
		{"chunks-v3", writeChunksV3, checkChunksV3},
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

// --- repo-v3: a checkpointed sqlmini repository (repo.snap + WAL tail) ---

// goldenTime is the TIMESTAMP the fixture logs.
var goldenTime = time.Date(2001, 4, 2, 9, 30, 0, 123456789, time.UTC)

// writeRepoV3 logs every payload op and every value kind after a checkpoint,
// across a segment rotation, and tears the last transaction's commit record.
func writeRepoV3(t *testing.T, dir string) {
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

// checkRepoV3 holds the recovered fixture to what writeRepoV3 logged. Its
// repo.snap is in the fixed layout, which starts with 0x00 after the file's
// CRC.
func checkRepoV3(t *testing.T, dir string) {
	if snap := readFile(t, filepath.Join(dir, "repo.snap")); snap[4] != 0x00 {
		t.Fatal("repo-v3's repo.snap is not in the fixed layout")
	}
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

// histories is a catalog.Receiver that keeps each key's replayed versions.
type histories map[string][]*catalog.PutRec

func (h histories) Put(key []byte, r *catalog.PutRec) bool {
	k := string(key)
	if n := len(h[k]); n > 0 && h[k][n-1].Version >= r.Version {
		return false
	}
	r.Key = k
	h[k] = append(h[k], r)
	return true
}

func (h histories) Truncate(key []byte, keep int) {
	if k := string(key); keep < len(h[k]) {
		h[k] = h[k][:keep]
	}
}

func (h histories) Drop(key []byte) { delete(h, string(key)) }

// compactFrom checkpoints c with the records of versions from..to, which is
// what its log leaves standing.
func compactFrom(t *testing.T, c *catalog.Catalog, rec func(int64) *catalog.PutRec, from, to int64) {
	err := c.Compact(func(put func(*catalog.PutRec)) {
		for v := from; v <= to; v++ {
			put(rec(v))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// openCatalog opens dir, replaying it into histories.
func openCatalog(t *testing.T, dir string) (*catalog.Catalog, histories) {
	h := histories{}
	c, err := catalog.Open(dir, catalog.Config{Receiver: h})
	if err != nil {
		t.Fatal(err)
	}
	return c, h
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
	compactFrom(t, c, catalogRec, 1, 3)
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
	c, hists := openCatalog(t, dir)
	defer c.Close()
	want := catalog.OpenStats{SnapshotRecords: 3, LogRecords: 1, StaleSkipped: 3, TornBytes: 98}
	if got := c.Stats(); got != want || len(hists) != 1 {
		t.Fatalf("open stats %+v over %d histories, want %+v over 1", got, len(hists), want)
	}
	hist := hists["fs1\x00/golden/file"]
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

// --- catalog-v2: the second put-record version, whose slots carry patches ---

// catalogRecV2 is catalogRec over three slots: version 1 is a checkpoint with
// patches on two slots, 2 and 4 are deltas patching slot 1 once and then
// twice, 3 is a first-version delta, 5 a checkpoint without patches.
func catalogRecV2(v int64) *catalog.PutRec {
	r := catalogRec(v)
	r.Key, r.NChunks, r.IsFull = "fs1\x00/golden/patched", 3, v == 1 || v == 5
	r.Full, r.Mods = nil, nil
	patch := func(idx, off int32, n byte) catalog.Patch {
		return catalog.Patch{Idx: idx, Off: off, Hash: sha256.Sum256([]byte{4, byte(v), n})}
	}
	switch v {
	case 1, 5:
		r.Full = []extent.Hash{sha256.Sum256([]byte{1, byte(v)}), sha256.Sum256([]byte{2, byte(v)}), sha256.Sum256([]byte{3, byte(v)})}
		if v == 1 {
			r.Patches = []catalog.Patch{patch(0, 4096, 0), patch(2, 0, 1), patch(2, 61440, 2)}
		}
	case 2, 4:
		r.Mods = []catalog.Mod{{Idx: 1, Hash: sha256.Sum256([]byte{2, 1})}}
		r.Patches = []catalog.Patch{patch(1, 8192, 0)}
		if v == 4 {
			r.Patches = append(r.Patches, patch(1, 12288, 1))
		}
	case 3:
		r.Mods = []catalog.Mod{{Idx: 0, Hash: sha256.Sum256([]byte{5, byte(v)})}}
	}
	return r
}

// writeCatalogV2 checkpoints versions 1-3 into the snapshot and leaves 4-5 in
// the log, so both carry patched records.
func writeCatalogV2(t *testing.T, dir string) {
	c, err := catalog.Open(dir, catalog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 5; v++ {
		if err := c.AppendPut(catalogRecV2(v)); err != nil {
			t.Fatal(err)
		}
		if v == 3 {
			compactFrom(t, c, catalogRecV2, 1, 3)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func checkCatalogV2(t *testing.T, dir string) {
	c, hists := openCatalog(t, dir)
	defer c.Close()
	want := catalog.OpenStats{SnapshotRecords: 3, LogRecords: 2}
	if got := c.Stats(); got != want || len(hists) != 1 {
		t.Fatalf("open stats %+v over %d histories, want %+v over 1", got, len(hists), want)
	}
	hist := hists["fs1\x00/golden/patched"]
	if len(hist) != 5 {
		t.Fatalf("replayed %d versions, want 5", len(hist))
	}
	for i, got := range hist {
		if want := catalogRecV2(int64(i + 1)); !reflect.DeepEqual(got, want) {
			t.Errorf("version %d replayed as %+v", i+1, *got)
		}
	}
}

// --- chunks: a sealed pack, an unsealed pack with a torn tail and a loose
// blob (read-only); chunks-v2 (read-only) and chunks-v3: the same blobs all
// packed, the last pack torn, only v3's sealed packs footered ---

var chunksConfig = chunkdisk.Config{PackTargetBytes: 2048}

// chunkBlob builds blob i: blob 0 is zeros (the older fixtures hold it as a
// flate-compressed pack record), blob 9 is longer (the chunks fixture's loose
// blob), the rest are random-looking.
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

func openChunks(t *testing.T, dir string) *chunkdisk.Store {
	t.Helper()
	cfg := chunksConfig
	cfg.Dir = dir
	s, err := chunkdisk.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serveChunks holds an opened chunks fixture to its contents: blobs 0-4 and 9
// adopted and served, the torn blob 5 not, its bytes in the quarantine of the
// pack it was torn out of.
func serveChunks(t *testing.T, s *chunkdisk.Store, tornPack string) {
	t.Helper()
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
	if torn := readFile(t, tornPack+".torn"); len(torn) != 682 {
		t.Fatalf("pack quarantine holds %d bytes, want 682", len(torn))
	}
}

// checkChunks opens the fixture whose blob 9 lies loose in dir/12/…: the
// open fails naming the fan-out dir, which it checks before any pack.
func checkChunks(t *testing.T, dir string) {
	refuseChunks(t, dir, filepath.Join(dir, "12"))
}

// refuseChunks holds a fixture in a retired blob form to its refusal: the
// open fails with the RetiredFormError naming the file at retired and leaves
// the directory as it was, byte for byte — no torn tail quarantined, no pack
// repaired or added.
func refuseChunks(t *testing.T, dir, retired string) {
	t.Helper()
	before := readDir(t, dir)
	cfg := chunksConfig
	cfg.Dir = dir
	s, err := chunkdisk.Open(cfg)
	var rf *chunkdisk.RetiredFormError
	if !errors.As(err, &rf) || rf.Path != retired {
		if err == nil {
			s.Close()
		}
		t.Fatalf("open = %v, want the retired form in %s", err, retired)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused open changed the fixture: files %v, were %v", sortedNames(after), sortedNames(before))
	}
}

func sortedNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func writeChunksV3(t *testing.T, dir string) {
	s := openChunks(t, dir)
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

// checkChunksV2 opens the fixture whose packs have no footers: the scan of
// the first pack meets blob 0's compressed record, and the open fails naming
// that pack before the torn last one is repaired.
func checkChunksV2(t *testing.T, dir string) {
	checkFooters(t, dir, false, false, false)
	refuseChunks(t, dir, filepath.Join(dir, "pack-00000001.pk"))
}

// checkChunksV3 opens the fixture whose sealed packs are footered and whose
// crashed pack is not: the open repairs that one and footers it too.
func checkChunksV3(t *testing.T, dir string) {
	checkFooters(t, dir, true, true, false)
	checkPackedChunks(t, dir)
}

func checkPackedChunks(t *testing.T, dir string) {
	s := openChunks(t, dir)
	defer s.Close()
	want := chunkdisk.Stats{DiskBlobs: 6, DiskBytes: 4600, DeadBlobs: 6, PackFiles: 3, PackTornBytes: 682}
	if got := s.Stats(); got != want {
		t.Fatalf("open stats %+v, want %+v", got, want)
	}
	serveChunks(t, s, lastMatch(t, dir, "pack-*.pk"))
	checkFooters(t, dir, true, true, true)
}

// checkFooters holds each pack in dir, in order, to being sealed — starting
// with the sealed pack magic and ending in the footer magic — or neither.
func checkFooters(t *testing.T, dir string, footered ...bool) {
	t.Helper()
	packs := matches(t, dir, "pack-*.pk")
	if len(packs) != len(footered) {
		t.Fatalf("packs %v, want %d", packs, len(footered))
	}
	for i, path := range packs {
		pack := readFile(t, path)
		marked, ends := bytes.HasPrefix(pack, []byte("DLPACKS1")), bytes.HasSuffix(pack, []byte("DLPFOOT1"))
		if marked != footered[i] || ends != footered[i] {
			t.Errorf("%s: sealed mark %v, footer %v, want %v", filepath.Base(path), marked, ends, footered[i])
		}
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
