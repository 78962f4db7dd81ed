package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

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

// Config describes a log directory.
type Config struct {
	// Dir is the log directory; created if missing, locked while open.
	Dir string
	// SegmentBytes bounds each segment file (DefaultSegmentBytes when 0).
	SegmentBytes int64
	// Fsync selects the durability policy for Flush/FlushTo.
	Fsync fsyncer.Policy
}

// Open opens (or creates) a log directory, taking single
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
	l := &Log{cfg: cfg, lock: lock, files: segments(cfg.Dir)}
	if err := l.replay(); err != nil {
		lock.Release()
		return nil, err
	}
	l.sync = fsyncer.New(cfg.Fsync, 0, l.flushActive, nil)
	return l, nil
}

// replay loads every segment into l, reading each file once. The first
// invalid byte ends the valid prefix: that segment's tail, and every later
// segment whole, is quarantined.
func (l *Log) replay() error {
	segs, err := l.files.List()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncing := l.cfg.Fsync != fsyncer.PolicyNone
	quarantine := filepath.Join(l.cfg.Dir, tornName)

	var (
		recs recTail
		base LSN
		next LSN
		kept []uint64 // segments that survive the repair
		torn bool
	)
	for i, first := range segs {
		if i == 0 {
			base, next = LSN(first)-1, LSN(first)
		}
		path := l.files.Path(first)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		// A gap or overlap between segments, like anything after a torn
		// segment, is not a continuation of the valid prefix.
		valid := 0
		if !torn && LSN(first) == next {
			valid = decodeFrames(data, next, &recs)
			next = base + LSN(recs.n) + 1
			if valid == len(data) {
				kept = append(kept, first)
				continue
			}
		}
		torn = true
		if err := seglog.RepairTail(path, int64(valid), quarantine, syncing); err != nil {
			return fmt.Errorf("wal: %s: %w", path, err)
		}
		l.tornBytes += int64(len(data) - valid)
		if valid > 0 {
			kept = append(kept, first)
		}
	}

	// Open (or create) the active segment.
	if len(kept) == 0 {
		first := base + LSN(recs.n) + 1
		f, err := l.files.Create(uint64(first), nil, syncing)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		kept = []uint64{uint64(first)}
		l.seg, l.segSize = f, 0
	} else {
		f, err := os.OpenFile(l.files.Path(kept[len(kept)-1]), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		l.seg, l.segSize = f, size
	}
	l.segs = kept
	l.written = base + LSN(recs.n)

	l.base = base
	l.records = recs
	l.flushed = l.written
	since := int64(0)
	for i := 0; i < recs.n; i++ {
		if r := recs.at(i); r.Type == RecCheckpoint && len(r.Payload) > 0 {
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
func (l *Log) flushActive() error {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.seg == nil {
		return nil
	}
	return l.seg.Sync()
}

// writePendingLocked moves the buffered frames into the active segment,
// rotating first if the segment is full. Caller holds l.mu.
func (l *Log) writePendingLocked() error {
	if len(l.pending) == 0 {
		return nil
	}
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.seg == nil {
		return ErrClosed
	}
	if l.segSize >= l.cfg.SegmentBytes {
		if err := l.rotateLocked(l.written + 1); err != nil {
			return err
		}
	}
	if _, err := l.seg.Write(l.pending); err != nil {
		// Rewind any partial write so the frame stream stays aligned;
		// pending is kept intact for a retry.
		l.seg.Truncate(l.segSize)
		l.seg.Seek(l.segSize, io.SeekStart)
		return fmt.Errorf("wal: writing %s: %w", l.seg.Name(), err)
	}
	l.segSize += int64(len(l.pending))
	l.written = l.base + LSN(l.records.n)
	l.pending = l.pending[:0]
	return nil
}

// rotateLocked seals the active segment and starts a new one whose first
// record will be `first`. Caller holds l.mu and l.fileMu.
func (l *Log) rotateLocked(first LSN) error {
	syncing := l.cfg.Fsync != fsyncer.PolicyNone
	if syncing {
		// Seal the outgoing segment so the flush callback only ever needs
		// to sync the active one.
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
	}
	f, err := l.files.Create(uint64(first), nil, syncing)
	if err != nil {
		return fmt.Errorf("wal: starting segment: %w", err)
	}
	l.seg.Close()
	l.seg = f
	l.segSize = 0
	l.segs = append(l.segs, uint64(first))
	return nil
}

// SealSegment writes the buffered tail and starts a fresh segment, so the next
// record appended is the first of its file. A checkpoint calls it right
// before logging its record: TruncateHead deletes only whole sealed segments,
// and this is what puts every record the checkpoint supersedes into one. An
// active segment that is still empty is kept.
func (l *Log) SealSegment() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.writePendingLocked(); err != nil {
		return err
	}
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.segSize == 0 {
		return nil
	}
	return l.rotateLocked(l.written + 1)
}

// TruncateHead discards log records below keepFrom, the checkpoint anchor's
// successor. It deletes only whole sealed segments — a segment that
// straddles keepFrom (a transaction flushed between the snapshot and the
// checkpoint's SealSegment) keeps its pre-anchor records, recovery re-reads
// them, and the sequence gate is what prevents double-apply. The in-memory
// tail drops its leading blocks without copying a surviving record.
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
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	keep := 0
	for keep+1 < len(l.segs) && LSN(l.segs[keep+1]) <= keepFrom {
		keep++
	}
	var err error
	for i := 0; i < keep && err == nil; i++ {
		// Oldest first, stopping at the first failure: a hole below a
		// surviving segment would read as a gap at the next open.
		if err = os.Remove(l.files.Path(l.segs[i])); err != nil {
			keep = i
		}
	}
	if keep > 0 {
		l.segs = append([]uint64(nil), l.segs[keep:]...)
		newBase := LSN(l.segs[0]) - 1
		l.records.dropHead(int(newBase - l.base))
		l.base = newBase
		if err == nil && l.cfg.Fsync != fsyncer.PolicyNone {
			err = seglog.SyncDir(l.cfg.Dir)
		}
	}
	if err != nil {
		return fmt.Errorf("wal: truncating head: %w", err)
	}
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.cfg.Dir }

// TornBytes reports how many bytes the open-time repair quarantined.
func (l *Log) TornBytes() int64 { return l.tornBytes }

// SyncCount reports physical fsyncs issued by the log.
func (l *Log) SyncCount() int64 { return l.sync.Count() }

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

// decodeFrames walks the frame stream, pushing its records onto recs and
// returning the length of the valid prefix. `next` is the LSN the first
// record must carry; any framing, decode, or sequence anomaly ends the valid
// prefix.
func decodeFrames(data []byte, next LSN, recs *recTail) (valid int) {
	return seglog.ValidPrefix(data, func(rest []byte) (int, bool) {
		payload, n, ok := seglog.NextFrame(rest)
		if !ok {
			return 0, false
		}
		rec, err := decodeRecord(payload)
		if err != nil || rec.LSN != next {
			return 0, false
		}
		recs.push(rec)
		next++
		return n, true
	})
}
