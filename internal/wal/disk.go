package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"datalinks/internal/dirlock"
	"datalinks/internal/fsyncer"
	"datalinks/internal/seglog"
)

// Disk layout: the log directory holds size-bounded segment files named
// wal-<first LSN>.log, each a concatenation of seglog frames whose payload is
// uvarint LSN, one type byte, uvarint TxnID, uvarint PrevLSN, uvarint
// UndoLSN, then the record payload. A reopen validates the segments in LSN
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

// Open opens (or creates) a log directory, taking single ownership of it,
// validating the longest valid record prefix and quarantining any torn tail.
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

// replay validates every segment in one pass through one scan window,
// counting the checkpoint odometer as it goes and keeping no record. The
// first invalid byte ends the valid prefix: that segment's tail, and every
// later segment whole, is quarantined.
func (l *Log) replay() error {
	segs, err := l.files.List()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncing := l.cfg.Fsync != fsyncer.PolicyNone
	quarantine := filepath.Join(l.cfg.Dir, tornName)

	var (
		sc   seglog.Scanner
		kept []uint64 // segments that survive the repair
		torn bool
	)
	next := LSN(1) // the LSN the next valid record must carry
	for i, first := range segs {
		if i == 0 {
			l.base, next = LSN(first)-1, LSN(first)
		}
		// A gap or overlap between segments, like anything after a torn
		// segment, is not a continuation of the valid prefix.
		continues := !torn && LSN(first) == next
		valid, size, err := l.readSegment(&sc, LSN(first), func(rec Record) bool {
			if continues {
				l.count(&rec)
				next = rec.LSN + 1
			}
			return continues
		})
		if err != nil {
			return err
		}
		if valid == size {
			kept = append(kept, first)
			continue
		}
		torn = true
		path := l.files.Path(first)
		if err := seglog.RepairTail(path, valid, quarantine, syncing); err != nil {
			return fmt.Errorf("wal: %s: %w", path, err)
		}
		l.tornBytes += size - valid
		if valid > 0 {
			kept = append(kept, first)
		}
	}
	l.tail = next - 1

	// Open (or create) the active segment.
	if len(kept) == 0 {
		f, err := l.files.Create(uint64(l.tail+1), nil, syncing)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		kept = []uint64{uint64(l.tail + 1)}
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
	l.written = l.tail
	l.flushed = l.tail
	return nil
}

// readSegment walks the segment that starts at LSN first through sc: fn
// sees, until it returns false, each record whose frame is whole, decodes
// and carries the next LSN, its Payload valid only during the call. It
// returns the length of the prefix walked and the file's size.
func (l *Log) readSegment(sc *seglog.Scanner, first LSN, fn func(Record) bool) (valid, size int64, err error) {
	f, err := os.Open(l.files.Path(uint64(first)))
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	next := first
	valid, err = sc.ScanFrames(f, info.Size(), func(payload []byte) bool {
		rec, err := decodeRecord(payload)
		if err != nil || rec.LSN != next {
			return false
		}
		next++
		return fn(rec)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("wal: reading %s: %w", f.Name(), err)
	}
	return valid, info.Size(), nil
}

// Scan calls fn on every record in [from, to] in LSN order. A zero `to`
// means the current tail; a `from` at or below the truncated base is clamped
// to the first retained record. Scanning stops early if fn returns false.
//
// The records are read back from the segment files through one reused
// window, then from a copy of the frames not yet written: a Scan writes
// nothing early. A record's Payload is valid only during fn. The segments a
// Scan began with stay on disk until it ends (see Log.doomed), so a
// TruncateHead racing it cannot cut the range it serves.
func (l *Log) Scan(from, to LSN, fn func(Record) bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	from = max(from, l.base+1)
	if to == NilLSN || to > l.tail {
		to = l.tail
	}
	written := l.written
	var pending []byte
	if to > written {
		pending = bytes.Clone(l.pending)
	}
	l.fileMu.Lock()
	segs := slices.Clone(l.segs)
	l.scans++
	l.fileMu.Unlock()
	l.mu.Unlock()
	defer l.endScan()

	more := true // fn has not asked to stop
	visit := func(rec Record) bool {
		if rec.LSN >= from {
			more = fn(rec)
		}
		return more && rec.LSN < to
	}
	var sc seglog.Scanner
	for i := 0; i < len(segs) && more; i++ {
		first, last := LSN(segs[i]), min(written, to)
		if i+1 < len(segs) {
			last = min(last, LSN(segs[i+1])-1)
		}
		if last < max(first, from) {
			continue
		}
		reached := first - 1
		_, _, err := l.readSegment(&sc, first, func(rec Record) bool {
			reached = rec.LSN
			return visit(rec)
		})
		// Bytes past the records served (a failed write being rewound) are
		// no concern of this scan; a segment Open validated and nothing
		// but appends touched ending short of them is.
		if more && reached < last {
			if err == nil {
				err = fmt.Errorf("wal: segment %d ends at record %d, want %d", first, reached, last)
			}
			return err
		}
	}
	for next := written + 1; more && next <= to; next++ {
		payload, n, ok := seglog.NextFrame(pending)
		rec, err := decodeRecord(payload)
		if !ok || err != nil || rec.LSN != next {
			return fmt.Errorf("wal: unwritten record %d does not decode", next)
		}
		pending = pending[n:]
		visit(rec)
	}
	return nil
}

// endScan ends a Scan, removing the segments TruncateHead dropped meanwhile
// once no other Scan is reading. A removal that fails is retried, and
// reported, by the next TruncateHead.
func (l *Log) endScan() {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.scans--; l.scans == 0 {
		_ = l.reapLocked()
	}
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
	l.written = l.tail
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
// them, and the sequence gate is what prevents double-apply. The base moves
// at once; while a Scan is reading, the files wait for it to end.
func (l *Log) TruncateHead(keepFrom LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	keepFrom = min(keepFrom, l.flushed+1)
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	keep := 0
	for keep+1 < len(l.segs) && LSN(l.segs[keep+1]) <= keepFrom {
		keep++
	}
	if keep > 0 {
		l.doomed = append(l.doomed, l.segs[:keep]...)
		l.segs = l.segs[keep:]
		l.base = LSN(l.segs[0]) - 1
	}
	if l.scans > 0 {
		return nil
	}
	if err := l.reapLocked(); err != nil {
		return fmt.Errorf("wal: truncating head: %w", err)
	}
	return nil
}

// reapLocked removes the doomed segments, oldest first, stopping at the
// first failure: a hole below a surviving segment would read as a gap at
// the next open, while a leftover run of old segments reads as records below
// the checkpoint anchor, which recovery skips. Caller holds l.fileMu.
func (l *Log) reapLocked() error {
	if len(l.doomed) == 0 {
		return nil
	}
	for len(l.doomed) > 0 {
		if err := os.Remove(l.files.Path(l.doomed[0])); err != nil {
			return err
		}
		l.doomed = l.doomed[1:]
	}
	l.doomed = nil
	if l.cfg.Fsync != fsyncer.PolicyNone {
		return seglog.SyncDir(l.cfg.Dir)
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
// then the record payload, which aliases b.
func decodeRecord(b []byte) (Record, error) {
	lsn, n := binary.Uvarint(b)
	if n <= 0 || n >= len(b) {
		return Record{}, errShortRecord
	}
	rec := Record{LSN: LSN(lsn), Type: RecType(b[n])}
	b = b[n+1:]
	for _, field := range [...]*uint64{&rec.TxnID, (*uint64)(&rec.PrevLSN), (*uint64)(&rec.UndoLSN)} {
		if *field, n = binary.Uvarint(b); n <= 0 {
			return Record{}, errShortRecord
		}
		b = b[n:]
	}
	if len(b) > 0 {
		rec.Payload = b
	}
	return rec, nil
}
