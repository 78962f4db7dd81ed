package sqlmini

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"

	"datalinks/internal/datalink"
	"datalinks/internal/wal"
)

// writeSnapshotFixture checkpoints, in dir, a database of two tables whose
// rows hold every value kind and whose columns carry every flag and a
// DATALINK control mode, plus a secondary index and a deleted row, and
// returns the stored form repo.snap holds after its CRC.
func writeSnapshotFixture(tb testing.TB, dir string) []byte {
	tb.Helper()
	lg, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	defer lg.Close()
	db := NewDB(Options{Log: lg, Dir: dir})
	for _, sql := range []string{
		`CREATE TABLE files (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES TOKEN 300, note VARCHAR)`,
		`CREATE INDEX ON files (note)`,
		`CREATE TABLE k (id INT PRIMARY KEY, f DOUBLE, b BOOLEAN NOT NULL, ts TIMESTAMP, s VARCHAR)`,
	} {
		if _, err := db.Exec(sql); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 1; i <= 4; i++ {
		if _, err := db.Exec(`INSERT INTO files VALUES (?, ?, ?)`, Int(int64(i)),
			Link(datalink.Link{Server: "fs1", Path: fmt.Sprintf("/d/%d.bin", i)}), Str("héllo")); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := db.Exec(`DELETE FROM files WHERE id = 2`); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO k VALUES (-5, 2.5, TRUE, ?, NULL)`, Time(time.Date(2001, 4, 2, 9, 30, 0, 123456789, time.UTC))); err != nil {
		tb.Fatal(err)
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		tb.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, snapFileName))
	if err != nil {
		tb.Fatal(err)
	}
	return raw[4:]
}

// TestSnapshotStoredFormRoundTrips: a checkpoint's stored form is the fixed
// layout, decodes to the image it was encoded from, and encodes back to the
// same bytes. An image without the layout's magic byte — such as the gob
// image repo.snap held before it — is refused with the checkpoint image's
// typed error, not a log payload's.
func TestSnapshotStoredFormRoundTrips(t *testing.T) {
	body := writeSnapshotFixture(t, t.TempDir())
	if body[0] != snapMagic || body[1] != snapVersion {
		t.Fatalf("repo.snap starts %x, want the fixed layout's 00 %02x", body[:2], snapVersion)
	}
	snap, err := decodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tables) != 2 || len(snap.Tables[0].Rows) != 3 || len(snap.Tables[0].Indexes) != 1 || len(snap.Tables[1].Rows) != 1 {
		t.Fatalf("decoded %+v", snap)
	}
	if again := encodeSnapshot(nil, snap); !bytes.Equal(again, body) {
		t.Fatalf("decoded image re-encodes differently:\n%x\n%x", again, body)
	}
	// A table count of 2^62 that the bytes cannot back: refused, not sized.
	hostile := binary.AppendUvarint([]byte{snapMagic, snapVersion, 0, 0}, 1<<62)
	for _, bad := range [][]byte{nil, append([]byte{0x03}, body[1:]...), hostile} {
		if _, err := decodeSnapshot(bad); !errors.Is(err, ErrBadSnapshot) || errors.Is(err, ErrBadPayload) {
			t.Errorf("image starting %x: err = %v, want ErrBadSnapshot", bad[:min(len(bad), 2)], err)
		}
	}
}

// TestRecoverNamesABadRepoSnap: recovering a directory whose repo.snap has a
// wrong magic byte under a good checksum fails naming repo.snap — the file to
// look at — and not a log payload.
func TestRecoverNamesABadRepoSnap(t *testing.T) {
	dir := t.TempDir()
	body := writeSnapshotFixture(t, dir)
	body[0] = 0x03
	data := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, snapFileName), append(data, body...), 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	_, _, err = Recover(lg, Options{Dir: dir})
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "repo.snap") || strings.Contains(err.Error(), "log payload") {
		t.Fatalf("recover = %v, want the bad repo.snap named", err)
	}
}

// TestSnapshotDecodeAllocBudget: decoding a snapshot allocates per table and
// per block of rows, not per row or per string — the strings are cut out of
// one copy of the body and the rows carved out of shared blocks.
func TestSnapshotDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const rows = 2000
	snap := &dbSnapshot{SnapLSN: 99, NextTxn: 7, Tables: []tableSnap{{
		Name:    "files",
		Columns: []Column{{Name: "id", Kind: KindInt, PrimaryKey: true}, {Name: "doc", Kind: KindLink}, {Name: "note", Kind: KindString}},
		NextID:  rows + 1,
	}}}
	ts := &snap.Tables[0]
	for i := 1; i <= rows; i++ {
		ts.RowIDs = append(ts.RowIDs, RowID(i))
		ts.Rows = append(ts.Rows, Row{Int(int64(i)), Link(datalink.Link{Server: "fs1", Path: fmt.Sprintf("/d/%d.bin", i)}), Str("note")})
	}
	body := encodeSnapshot(nil, snap)
	if len(body) > snapshotLen(snap) {
		t.Fatalf("encoded %d bytes past the %d encodeSnapshot sized", len(body), snapshotLen(snap))
	}
	objects := testing.AllocsPerRun(5, func() {
		if _, err := decodeSnapshot(body); err != nil {
			t.Fatal(err)
		}
	})
	// The string copy, the image, its tables, their names, columns and
	// column names, index list, row ids and row list, and rows*3/512 value
	// blocks.
	if budget := 32.0; objects > budget {
		t.Fatalf("decoding %d rows allocated %.0f objects, budget %.0f", rows, objects, budget)
	}
}

// FuzzSnapshotDecode holds the repo.snap decoder to its contract on
// arbitrary bytes in the fixed layout: it never panics, sizes nothing by a
// count the bytes cannot back, and what it accepts re-encodes to exactly the
// bytes it read, and refuses everything else with the typed error. Seeds are
// a real checkpoint's stored form and each of its prefixes.
func FuzzSnapshotDecode(f *testing.F) {
	body := writeSnapshotFixture(f, f.TempDir())
	for n := 0; n <= len(body); n++ {
		f.Add(body[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := decodeSnapshot(b)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		held := len(snap.Tables) * int(unsafe.Sizeof(tableSnap{}))
		for i := range snap.Tables {
			ts := &snap.Tables[i]
			held += len(ts.Columns)*int(unsafe.Sizeof(Column{})) + len(ts.Rows)*int(unsafe.Sizeof(Row{})+unsafe.Sizeof(RowID(0)))
			for _, r := range ts.Rows {
				held += len(r) * int(unsafe.Sizeof(Value{}))
			}
		}
		if held > len(b)*decodeBudget {
			t.Fatalf("%d input bytes decoded into %d bytes of tables and rows", len(b), held)
		}
		if again := encodeSnapshot(nil, snap); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-encodes as %x", b, again)
		}
	})
}
