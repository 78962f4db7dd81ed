package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datalinks/internal/dirlock"
	"datalinks/internal/fsyncer"
	"datalinks/internal/seglog"
)

// Disk layout: the log directory holds size-bounded segment files named
// wal-<first LSN>.log, each a concatenation of seglog frames whose payload is
// uvarint LSN, one type byte, uvarint TxnID, uvarint PrevLSN, uvarint
// UndoLSN, then the record payload. A reopen replays the segments in LSN
// order and keeps the longest valid prefix: the first frame that fails its
// framing, decode, or LSN-continuity check marks the torn tail, which seglog
// quarantines to wal.torn and cuts off. The same directory carries repo.snap
// (the sqlmini checkpoint snapshot) and the repo.lock single-owner lockfile.
const (
	// DefaultSegmentBytes bounds a segment before the log rotates to a new
	// file; whole sealed segments below the checkpoint anchor are deleted by
	// TruncateHead.
	DefaultSegmentBytes = 4 << 20

	repoLockName = "repo.lock"
	tornName     = "wal.torn"
)

// segments is the wal-<first LSN>.log family of a log directory.
func segments(dir string) seglog.Segments {
	return seglog.Segments{Dir: dir, Prefix: "wal-", Suffix: ".log", Width: 16}
}

// Config describes a disk-backed log directory.
type Config struct {
	// Dir is the log directory; created if missing, locked while open.
	Dir string
	// SegmentBytes bounds each segment file (DefaultSegmentBytes when 0).
	SegmentBytes int64
	// Fsync selects the durability policy for Flush/FlushTo.
	Fsync fsyncer.Policy
	// FsyncMaxDelay is the group-commit coalescing window under PolicyGroup.
	FsyncMaxDelay time.Duration
}

// diskLog is the stable-storage side of a Log. The pending buffer and the
// written watermark are guarded by the owning Log's mu; the file handle and
// segment list by fileMu (lock order: mu before fileMu), so the fsyncer's
// flush callback can sync the active segment without blocking appends.
type diskLog struct {
	cfg       Config
	lock      *dirlock.Lock
	sync      *fsyncer.Syncer
	pending   []byte // frames appended since the last write (under Log.mu)
	written   LSN    // highest LSN whose frame reached the file (under Log.mu)
	tornBytes int64  // bytes quarantined to wal.torn at open

	fileMu  sync.Mutex
	files   seglog.Segments
	seg     *os.File // active (last) segment
	segSize int64
	segs    []uint64 // first LSN of every segment, ascending; the last is active
}

// Open opens (or creates) a disk-backed log directory, taking single
// ownership of it, replaying the longest valid record prefix and
// quarantining any torn tail.
func Open(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := dirlock.Acquire(cfg.Dir, repoLockName)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	d := &diskLog{cfg: cfg, lock: lock, files: segments(cfg.Dir)}
	l := &Log{disk: d}
	if err := d.replay(l); err != nil {
		lock.Release()
		return nil, err
	}
	d.sync = fsyncer.New(cfg.Fsync, cfg.FsyncMaxDelay, d.flushActive, nil)
	return l, nil
}

// replay loads every segment into l, reading each file once. The first
// invalid byte ends the valid prefix: that segment's tail, and every later
// segment whole, is quarantined.
func (d *diskLog) replay(l *Log) error {
	segs, err := d.files.List()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncing := d.cfg.Fsync != fsyncer.PolicyNone
	quarantine := filepath.Join(d.cfg.Dir, tornName)

	var (
		recs []Record
		base LSN
		next LSN
		kept []uint64 // segments that survive the repair
		torn bool
	)
	for i, first := range segs {
		if i == 0 {
			base, next = LSN(first)-1, LSN(first)
		}
		path := d.files.Path(first)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		// A gap or overlap between segments, like anything after a torn
		// segment, is not a continuation of the valid prefix.
		valid := 0
		if !torn && LSN(first) == next {
			var fileRecs []Record
			valid, fileRecs = decodeFrames(data, next)
			recs = append(recs, fileRecs...)
			next += LSN(len(fileRecs))
			if valid == len(data) {
				kept = append(kept, first)
				continue
			}
		}
		torn = true
		if err := seglog.RepairTail(path, int64(valid), quarantine, syncing); err != nil {
			return fmt.Errorf("wal: %s: %w", path, err)
		}
		d.tornBytes += int64(len(data) - valid)
		if valid > 0 {
			kept = append(kept, first)
		}
	}

	// Open (or create) the active segment.
	if len(kept) == 0 {
		first := base + LSN(len(recs)) + 1
		f, err := d.files.Create(uint64(first), nil, syncing)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		kept = []uint64{uint64(first)}
		d.seg, d.segSize = f, 0
	} else {
		f, err := os.OpenFile(d.files.Path(kept[len(kept)-1]), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		d.seg, d.segSize = f, size
	}
	d.segs = kept
	d.written = base + LSN(len(recs))

	l.base = base
	l.records = recs
	l.flushed = d.written
	since := int64(0)
	for _, r := range recs {
		if r.Type == RecCheckpoint && len(r.Payload) > 0 {
			since = 0
		} else {
			since += int64(len(r.Payload)) + recOverheadBytes
		}
	}
	l.sizeSinceCkpt = since
	return nil
}

// flushActive is the fsyncer callback: sync the active segment. Sealed
// segments were synced at rotation, so the active file is the only one with
// bytes possibly outside stable storage.
func (d *diskLog) flushActive() error {
	d.fileMu.Lock()
	defer d.fileMu.Unlock()
	if d.seg == nil {
		return nil
	}
	return d.seg.Sync()
}

// writePendingLocked moves the buffered frames into the active segment,
// rotating first if the segment is full. Caller holds l.mu.
func (l *Log) writePendingLocked() error {
	d := l.disk
	if len(d.pending) == 0 {
		return nil
	}
	d.fileMu.Lock()
	defer d.fileMu.Unlock()
	if d.seg == nil {
		return ErrClosed
	}
	if d.segSize >= d.cfg.SegmentBytes {
		if err := d.rotateLocked(d.written + 1); err != nil {
			return err
		}
	}
	if _, err := d.seg.Write(d.pending); err != nil {
		// Rewind any partial write so the frame stream stays aligned;
		// pending is kept intact for a retry.
		d.seg.Truncate(d.segSize)
		d.seg.Seek(d.segSize, io.SeekStart)
		return fmt.Errorf("wal: writing %s: %w", d.seg.Name(), err)
	}
	d.segSize += int64(len(d.pending))
	d.written = l.base + LSN(len(l.records))
	d.pending = d.pending[:0]
	return nil
}

// rotateLocked seals the active segment and starts a new one whose first
// record will be `first`. Caller holds l.mu and d.fileMu.
func (d *diskLog) rotateLocked(first LSN) error {
	syncing := d.cfg.Fsync != fsyncer.PolicyNone
	if syncing {
		// Seal the outgoing segment so the flush callback only ever needs
		// to sync the active one.
		if err := d.seg.Sync(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
	}
	f, err := d.files.Create(uint64(first), nil, syncing)
	if err != nil {
		return fmt.Errorf("wal: starting segment: %w", err)
	}
	d.seg.Close()
	d.seg = f
	d.segSize = 0
	d.segs = append(d.segs, uint64(first))
	return nil
}

// SealSegment writes the buffered tail and starts a fresh segment, so the next
// record appended is the first of its file. A checkpoint calls it right
// before logging its record: TruncateHead deletes only whole sealed segments,
// and this is what puts every record the checkpoint supersedes into one. An
// active segment that is still empty is kept; the in-memory backend has no
// segments to seal.
func (l *Log) SealSegment() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	d := l.disk
	if d == nil {
		return nil
	}
	if err := l.writePendingLocked(); err != nil {
		return err
	}
	d.fileMu.Lock()
	defer d.fileMu.Unlock()
	if d.segSize == 0 {
		return nil
	}
	return d.rotateLocked(d.written + 1)
}

// TruncateHead discards log records below keepFrom, the checkpoint anchor's
// successor. The disk backend deletes only whole sealed segments — a segment
// that straddles keepFrom (a transaction flushed between the snapshot and the
// checkpoint's SealSegment) keeps its pre-anchor records, recovery re-reads
// them, and the sequence gate is what prevents double-apply. The in-memory
// backend trims exactly.
func (l *Log) TruncateHead(keepFrom LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if keepFrom > l.flushed+1 {
		keepFrom = l.flushed + 1
	}
	if keepFrom <= l.base+1 {
		return nil
	}
	if l.disk == nil {
		newBase := keepFrom - 1
		l.records = append([]Record(nil), l.records[newBase-l.base:]...)
		l.base = newBase
		return nil
	}
	d := l.disk
	d.fileMu.Lock()
	defer d.fileMu.Unlock()
	keep := 0
	for keep+1 < len(d.segs) && LSN(d.segs[keep+1]) <= keepFrom {
		keep++
	}
	var err error
	for i := 0; i < keep && err == nil; i++ {
		// Oldest first, stopping at the first failure: a hole below a
		// surviving segment would read as a gap at the next open.
		if err = os.Remove(d.files.Path(d.segs[i])); err != nil {
			keep = i
		}
	}
	if keep > 0 {
		d.segs = append([]uint64(nil), d.segs[keep:]...)
		newBase := LSN(d.segs[0]) - 1
		l.records = append([]Record(nil), l.records[newBase-l.base:]...)
		l.base = newBase
		if err == nil && d.cfg.Fsync != fsyncer.PolicyNone {
			err = seglog.SyncDir(d.cfg.Dir)
		}
	}
	if err != nil {
		return fmt.Errorf("wal: truncating head: %w", err)
	}
	return nil
}

// Dir returns the disk backend's directory ("" for the in-memory backend).
func (l *Log) Dir() string {
	if l.disk == nil {
		return ""
	}
	return l.disk.cfg.Dir
}

// TornBytes reports how many bytes the open-time repair quarantined.
func (l *Log) TornBytes() int64 {
	if l.disk == nil {
		return 0
	}
	return l.disk.tornBytes
}

// SyncCount reports physical fsyncs issued by the disk backend.
func (l *Log) SyncCount() int64 {
	if l.disk == nil {
		return 0
	}
	return l.disk.sync.Count()
}

// appendRecordHeader serializes the record's header fields; the frame's
// payload is this header followed by rec.Payload.
func appendRecordHeader(buf []byte, rec Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(rec.LSN))
	buf = append(buf, byte(rec.Type))
	buf = binary.AppendUvarint(buf, rec.TxnID)
	buf = binary.AppendUvarint(buf, uint64(rec.PrevLSN))
	return binary.AppendUvarint(buf, uint64(rec.UndoLSN))
}

var errShortRecord = errors.New("wal: truncated record payload")

// decodeRecord reads a frame payload: the header appendRecordHeader wrote,
// then the record payload, copied so the record does not alias the segment
// read buffer.
func decodeRecord(b []byte) (Record, error) {
	var rec Record
	lsn, n := binary.Uvarint(b)
	if n <= 0 {
		return rec, errShortRecord
	}
	b = b[n:]
	if len(b) < 1 {
		return rec, errShortRecord
	}
	rec.Type = RecType(b[0])
	b = b[1:]
	txn, n := binary.Uvarint(b)
	if n <= 0 {
		return rec, errShortRecord
	}
	b = b[n:]
	prev, n := binary.Uvarint(b)
	if n <= 0 {
		return rec, errShortRecord
	}
	b = b[n:]
	undo, n := binary.Uvarint(b)
	if n <= 0 {
		return rec, errShortRecord
	}
	b = b[n:]
	rec.LSN = LSN(lsn)
	rec.TxnID = txn
	rec.PrevLSN = LSN(prev)
	rec.UndoLSN = LSN(undo)
	if len(b) > 0 {
		rec.Payload = append([]byte(nil), b...)
	}
	return rec, nil
}

// decodeFrames walks the frame stream, returning the length of the valid
// prefix and its records. `next` is the LSN the first record must carry;
// any framing, decode, or sequence anomaly ends the valid prefix.
func decodeFrames(data []byte, next LSN) (valid int, recs []Record) {
	valid = seglog.ValidPrefix(data, func(rest []byte) (int, bool) {
		payload, n, ok := seglog.NextFrame(rest)
		if !ok {
			return 0, false
		}
		rec, err := decodeRecord(payload)
		if err != nil || rec.LSN != next {
			return 0, false
		}
		recs = append(recs, rec)
		next++
		return n, true
	})
	return valid, recs
}
