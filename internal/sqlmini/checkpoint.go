package sqlmini

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"datalinks/internal/seglog"
	"datalinks/internal/wal"
)

// Checkpoints bound recovery work: a quiescent snapshot of every table is
// captured at a known LSN (the anchor) and recovery replays only the log
// tail after it, O(tail) instead of O(history).
//
// The snapshot is taken only when no transaction is active — Begin registers
// in db.active under db.mu before logging anything, so holding db.mu with an
// empty active set blocks every writer. Quiescence buys a strong invariant:
// no transaction spans a checkpoint, so no loser or in-doubt transaction
// logged a change below the anchor, and the recovery scan rebuilds each one's
// whole undo list from the records it reads.
//
// A checkpoint writes the snapshot to repo.snap in Options.Dir (seglog's
// atomic replace), seals the active log segment, then logs a reference
// checkpoint record — the first of a fresh segment — and truncates the log
// head: every sealed segment, so all of the log below the anchor unless a
// transaction flushed in between. The sequencing is the gate against
// double-apply: the snapshot file carries its anchor LSN, recovery replays
// strictly after it, and a crash between the rename and the truncate merely
// leaves extra pre-anchor records that the anchored scan skips.
//
// A database without Options.Dir never checkpoints, so its log keeps the
// whole history: the host database relies on that to rebuild any past state
// from a prefix of its log.

// ckptRef is the first byte of a RecCheckpoint payload; the uvarint anchor
// LSN follows, and the state is in repo.snap.
const ckptRef byte = 0x02

// snapFileName is the checkpoint snapshot in the repository directory.
const snapFileName = "repo.snap"

// tableSnap is one table's checkpoint image.
type tableSnap struct {
	Name    string
	Columns []Column
	Indexes []int // secondary-indexed column positions
	RowIDs  []RowID
	Rows    []Row
	NextID  RowID
}

// dbSnapshot is the whole-database checkpoint image.
type dbSnapshot struct {
	SnapLSN wal.LSN // the log tail when the image was captured — the anchor
	NextTxn uint64
	Tables  []tableSnap
}

// Checkpoint attempts a quiescent checkpoint. It returns false (with no
// error) when active transactions make the database non-quiescent; the next
// trigger retries. A database without Options.Dir returns an error.
func (db *DB) Checkpoint() (bool, error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointLocked()
}

// maybeCheckpoint fires a checkpoint when the log odometer passes the
// configured threshold. Called on every transaction finish; contention is a
// non-event and failure only a counted one, sqlmini.checkpoint.failures (the
// log remains authoritative, a checkpoint is only an optimization until the
// next one lands).
func (db *DB) maybeCheckpoint() {
	if db.dir == "" || db.ckptBytes <= 0 || db.log.SizeSinceCheckpoint() < db.ckptBytes {
		return
	}
	if !db.ckptMu.TryLock() {
		return
	}
	defer db.ckptMu.Unlock()
	if _, err := db.checkpointLocked(); err != nil {
		db.ckptFailures.Inc()
	}
}

// captureDurable takes the quiescent image and forces the log up to its
// anchor — the WAL rule: every record the snapshot reflects must be durable
// before the snapshot can supersede them. It returns nil (and no error) when
// a transaction is active.
func (db *DB) captureDurable() (*dbSnapshot, error) {
	db.mu.Lock()
	if len(db.active) > 0 {
		db.mu.Unlock()
		return nil, nil
	}
	snap := db.captureQuiescent()
	snap.SnapLSN = db.log.TailLSN()
	snap.NextTxn = db.nextTxn
	db.mu.Unlock()
	if err := db.log.FlushTo(snap.SnapLSN); err != nil {
		return nil, err
	}
	return snap, nil
}

// checkpointLocked does the work; caller holds ckptMu.
func (db *DB) checkpointLocked() (bool, error) {
	if db.dir == "" {
		return false, errors.New("sqlmini: checkpoint needs Options.Dir")
	}
	snap, err := db.captureDurable()
	if snap == nil {
		return false, err
	}
	if err := writeSnapFile(db.dir, snap); err != nil {
		return false, err
	}
	// Seal the segment the snapshot supersedes: the checkpoint record opens
	// a fresh one, TruncateHead below drops every segment before it, and the
	// next open replays the records since this checkpoint, not since the
	// last size-triggered rotation.
	if err := db.log.SealSegment(); err != nil {
		return false, err
	}
	payload := binary.AppendUvarint([]byte{ckptRef}, uint64(snap.SnapLSN))
	if _, err := db.log.Append(wal.Record{Type: wal.RecCheckpoint, Payload: payload}); err != nil {
		return false, err
	}
	if _, err := db.log.Flush(); err != nil {
		return false, err
	}
	if err := db.log.TruncateHead(snap.SnapLSN + 1); err != nil {
		return false, err
	}
	return true, nil
}

// captureQuiescent images every table. Caller holds db.mu with db.active
// empty, so no writer can race the per-table latches.
func (db *DB) captureQuiescent() *dbSnapshot {
	snap := &dbSnapshot{}
	db.cat.mu.RLock()
	names := make([]string, 0, len(db.cat.tables))
	for k := range db.cat.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	tables := make([]*Table, 0, len(names))
	for _, k := range names {
		tables = append(tables, db.cat.tables[k])
	}
	db.cat.mu.RUnlock()
	for _, t := range tables {
		snap.Tables = append(snap.Tables, snapTable(t))
	}
	return snap
}

// snapTable images one table under its latch. The rows are the installed
// slices, never written again, so the image shares them instead of copying.
func snapTable(t *Table) tableSnap {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ts := tableSnap{
		Name:    t.Name,
		Columns: append([]Column(nil), t.Columns...),
		NextID:  t.nextID,
	}
	for ci := range t.secondary {
		if t.Columns[ci].Kind != KindLink { // implicit: derived from Columns on load
			ts.Indexes = append(ts.Indexes, ci)
		}
	}
	sort.Ints(ts.Indexes)
	ids := make([]RowID, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ts.RowIDs = append(ts.RowIDs, id)
		ts.Rows = append(ts.Rows, t.rows[id])
	}
	return ts
}

// applySnapshot rebuilds the catalog from a checkpoint image. The database
// must be empty (freshly constructed for recovery).
func (db *DB) applySnapshot(snap *dbSnapshot) error {
	for _, ts := range snap.Tables {
		tbl, err := db.cat.create(ts.Name, ts.Columns)
		if err != nil {
			return fmt.Errorf("sqlmini: snapshot apply: %w", err)
		}
		for _, ci := range ts.Indexes {
			tbl.AddIndex(ci)
		}
		for i, id := range ts.RowIDs {
			if err := tbl.InsertAt(id, ts.Rows[i]); err != nil {
				return fmt.Errorf("sqlmini: snapshot apply: %w", err)
			}
		}
		tbl.mu.Lock()
		if ts.NextID > tbl.nextID {
			tbl.nextID = ts.NextID
		}
		tbl.mu.Unlock()
	}
	db.nextTxn = snap.NextTxn
	return nil
}

// The stored form of a dbSnapshot, version 1, built from the log payload's
// own pieces (payload.go): strings, rows and column lists are laid out as a
// payload lays them out.
//
//	0x00 | version | anchor LSN | next txn | table count | tables
//
//	table = name string | columns | index count, then each indexed column's
//	        position | next row id | row count, then per row its row id and
//	        the row
//
// Every number is a uvarint. The leading 0x00 is the layout's magic byte: an
// image that does not start with it — the gob image repo.snap held before
// this layout, whose message length is never zero, among them — is refused
// with ErrBadSnapshot, so a directory that holds one fails to open.
const (
	snapMagic   byte = 0x00
	snapVersion byte = 1
)

// snapshotLen bounds the encoded size of snap (a TIMESTAMP may come out a
// byte under its bound), so encodeSnapshot allocates once.
func snapshotLen(snap *dbSnapshot) int {
	n := 2 + uvarintLen(uint64(snap.SnapLSN)) + uvarintLen(snap.NextTxn) + uvarintLen(uint64(len(snap.Tables)))
	for i := range snap.Tables {
		ts := &snap.Tables[i]
		n += stringLen(ts.Name) + columnsLen(ts.Columns) + uvarintLen(uint64(len(ts.Indexes))) +
			uvarintLen(uint64(ts.NextID)) + uvarintLen(uint64(len(ts.Rows)))
		for _, ci := range ts.Indexes {
			n += uvarintLen(uint64(ci))
		}
		for j := range ts.Rows {
			n += uvarintLen(uint64(ts.RowIDs[j])) + rowLen(ts.Rows[j])
		}
	}
	return n
}

// encodeSnapshot returns prefix followed by the stored form of snap.
func encodeSnapshot(prefix []byte, snap *dbSnapshot) []byte {
	b := append(make([]byte, 0, len(prefix)+snapshotLen(snap)), prefix...)
	b = append(b, snapMagic, snapVersion)
	b = binary.AppendUvarint(b, uint64(snap.SnapLSN))
	b = binary.AppendUvarint(b, snap.NextTxn)
	b = binary.AppendUvarint(b, uint64(len(snap.Tables)))
	for i := range snap.Tables {
		ts := &snap.Tables[i]
		b = appendString(b, ts.Name)
		b = appendColumns(b, ts.Columns)
		b = binary.AppendUvarint(b, uint64(len(ts.Indexes)))
		for _, ci := range ts.Indexes {
			b = binary.AppendUvarint(b, uint64(ci))
		}
		b = binary.AppendUvarint(b, uint64(ts.NextID))
		b = binary.AppendUvarint(b, uint64(len(ts.Rows)))
		for j := range ts.Rows {
			b = binary.AppendUvarint(b, uint64(ts.RowIDs[j]))
			b = appendRow(b, ts.Rows[j])
		}
	}
	return b
}

// decodeSnapshot is the inverse of encodeSnapshot. The rows share one string
// copy of b and a few blocks of values (see newSharedReader): a snapshot's
// rows are installed as they are, so the copy stays reachable while any of
// them holds a string cut from it. Table and column names, which live as long as their
// tables, are copied out of it, so they never keep it.
func decodeSnapshot(b []byte) (*dbSnapshot, error) {
	r := newSharedReader(b)
	r.field = "snapshot magic"
	if r.byte() != snapMagic {
		r.fail()
	}
	r.field = "snapshot version"
	if r.byte() != snapVersion {
		r.fail()
	}
	r.field = "snapshot header"
	snap := &dbSnapshot{SnapLSN: wal.LSN(r.uvarint()), NextTxn: r.uvarint()}
	// A table takes at least a name, a column list, an index count, a next
	// row id and a row count: a byte each.
	snap.Tables = make([]tableSnap, r.count(5))
	for i := range snap.Tables {
		ts := &snap.Tables[i]
		r.field = "table name"
		ts.Name = strings.Clone(r.str())
		r.field = "column list"
		ts.Columns = r.columns()
		for j := range ts.Columns {
			ts.Columns[j].Name = strings.Clone(ts.Columns[j].Name)
		}
		r.field = "index list"
		if n := r.count(1); n > 0 {
			ts.Indexes = make([]int, n)
			for j := range ts.Indexes {
				ci := r.uvarint()
				if ci >= uint64(len(ts.Columns)) {
					r.fail()
				}
				ts.Indexes[j] = int(ci)
			}
		}
		r.field = "row list"
		ts.NextID = RowID(r.uvarint())
		// A row takes at least its id and its value count.
		if n := r.count(2); n > 0 {
			ts.RowIDs, ts.Rows = make([]RowID, n), make([]Row, n)
			for j := range ts.Rows {
				ts.RowIDs[j] = RowID(r.uvarint())
				ts.Rows[j] = r.row()
			}
		}
		if r.err != nil {
			break
		}
	}
	r.field = "trailing bytes"
	if len(r.b) > 0 {
		r.fail()
	}
	if r.err != nil {
		return nil, fmt.Errorf("sqlmini: snapshot decode: %w", r.err)
	}
	return snap, nil
}

// writeSnapFile persists the snapshot as repo.snap: a CRC-32 of the stored
// form, then the stored form. The replace is always fsynced, whatever the WAL's policy:
// the caller deletes the log segments this file supersedes, and a failure to
// make it (or its rename) durable must stop that.
func writeSnapFile(dir string, snap *dbSnapshot) error {
	data := encodeSnapshot(make([]byte, 4), snap)
	binary.LittleEndian.PutUint32(data[:4], crc32.ChecksumIEEE(data[4:]))
	if _, err := seglog.ReplaceFile(filepath.Join(dir, snapFileName), data, true); err != nil {
		return fmt.Errorf("sqlmini: snapshot write: %w", err)
	}
	return nil
}

// loadSnapFile reads the checkpoint snapshot, returning (nil, nil) when none
// exists. A leftover temp file from an interrupted write is discarded.
func loadSnapFile(dir string) (*dbSnapshot, error) {
	os.Remove(filepath.Join(dir, snapFileName+seglog.TmpSuffix))
	raw, err := os.ReadFile(filepath.Join(dir, snapFileName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sqlmini: snapshot read: %w", err)
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("sqlmini: snapshot file truncated (%d bytes)", len(raw))
	}
	want := binary.LittleEndian.Uint32(raw[:4])
	if crc32.ChecksumIEEE(raw[4:]) != want {
		return nil, fmt.Errorf("sqlmini: snapshot file fails its checksum")
	}
	return decodeSnapshot(raw[4:])
}
