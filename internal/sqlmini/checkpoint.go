package sqlmini

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

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
// no transaction spans a checkpoint, so no loser or in-doubt backchain ever
// reaches below the anchor, and the undo pass never needs truncated records.
//
// Disk mode (Options.Dir set) writes the snapshot to repo.snap in the WAL
// directory (seglog's atomic replace), seals the active log segment, then
// logs a reference checkpoint record — the first of a fresh segment — and
// truncates the log head: every sealed segment, so all of the log below the
// anchor unless a transaction flushed in between. The sequencing is the gate
// against double-apply: the snapshot file carries its anchor LSN, recovery
// replays strictly after it, and a crash between the rename and the truncate
// merely leaves extra pre-anchor records that the anchored scan skips. The
// in-memory mode embeds the snapshot in the checkpoint record itself.

// Checkpoint payload kinds (first byte of a RecCheckpoint payload).
const (
	ckptEmbedded byte = 0x01 // gob snapshot follows (in-memory mode)
	ckptRef      byte = 0x02 // uvarint anchor LSN follows; state in repo.snap
)

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
// trigger retries.
func (db *DB) Checkpoint() (bool, error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointLocked()
}

// maybeCheckpoint fires a checkpoint when the log odometer passes the
// configured threshold. Called on every transaction finish; contention and
// failure are both non-events (the log remains authoritative, a checkpoint
// is only an optimization until the next one lands).
func (db *DB) maybeCheckpoint() {
	if db.ckptBytes <= 0 || db.log.SizeSinceCheckpoint() < db.ckptBytes {
		return
	}
	if !db.ckptMu.TryLock() {
		return
	}
	defer db.ckptMu.Unlock()
	_, _ = db.checkpointLocked()
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
	snap, err := db.captureDurable()
	if snap == nil {
		return false, err
	}

	if db.dir != "" {
		if err := writeSnapFile(db.dir, snap); err != nil {
			return false, err
		}
		// Seal the segment the snapshot supersedes: the checkpoint record
		// opens a fresh one, TruncateHead below drops every segment before
		// it, and the next open replays the records since this checkpoint,
		// not since the last size-triggered rotation.
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

	payload := encodeSnapshot([]byte{ckptEmbedded}, snap)
	if _, err := db.log.Append(wal.Record{Type: wal.RecCheckpoint, Payload: payload}); err != nil {
		return false, err
	}
	if _, err := db.log.Flush(); err != nil {
		return false, err
	}
	return true, nil
}

// captureQuiescent copies every table. Caller holds db.mu with db.active
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

// snapTable copies one table under its latch.
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
		ts.Rows = append(ts.Rows, t.rows[id].Clone())
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

// encodeSnapshot returns prefix followed by the gob image of snap.
func encodeSnapshot(prefix []byte, snap *dbSnapshot) []byte {
	buf := bytes.NewBuffer(prefix)
	if err := gob.NewEncoder(buf).Encode(snap); err != nil {
		panic(fmt.Sprintf("sqlmini: snapshot encode: %v", err)) // all types are gob-safe
	}
	return buf.Bytes()
}

func decodeSnapshot(b []byte) (*dbSnapshot, error) {
	var snap dbSnapshot
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("sqlmini: snapshot decode: %w", err)
	}
	return &snap, nil
}

// writeSnapFile persists the snapshot as repo.snap: a CRC-32 of the gob image,
// then the image. The replace is always fsynced, whatever the WAL's policy:
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
