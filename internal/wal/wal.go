// Package wal implements a write-ahead log with LSN addressing, per-transaction
// backchaining, group flush, and crash simulation. Both the host database
// (internal/sqlmini) and the DLFM repository log through this package.
//
// The log has two backends. The in-memory backend (New) models stable
// storage explicitly: records appended with Append are buffered and volatile
// until Flush makes them durable, and Crash() discards the volatile tail,
// exactly what a power failure would do — recovery tests exercise every
// interleaving of "logged but not forced". The disk backend (Open) puts the
// same record stream in seglog-framed, size-bounded segment files under a
// locked directory, with Flush/FlushTo routed through an fsyncer policy; a
// reopen replays the longest valid prefix and quarantines any torn tail.
package wal

import (
	"errors"
	"fmt"
	"sync"

	"datalinks/internal/fsyncer"
	"datalinks/internal/seglog"
)

// LSN is a log sequence number. LSNs start at 1; 0 means "nil LSN".
type LSN uint64

// NilLSN is the zero LSN, used as the PrevLSN of a transaction's first record.
const NilLSN LSN = 0

// RecType identifies the kind of a log record.
type RecType uint8

// Log record types. Update carries both redo and undo images. CLR is a
// compensation record written while rolling back; it is redo-only.
const (
	RecBegin RecType = iota + 1
	RecUpdate
	RecCommit
	RecAbort
	RecEnd
	RecCLR
	RecCheckpoint
	RecPrepare // transaction entered the prepared (in-doubt) state of 2PC
)

// String returns a human-readable name for the record type.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecEnd:
		return "END"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecPrepare:
		return "PREPARE"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is a single log record. Payload encoding is the client's business:
// sqlmini stores row images, DLFM stores repository mutations.
type Record struct {
	LSN     LSN
	Type    RecType
	TxnID   uint64
	PrevLSN LSN // previous record of the same transaction (backchain)
	UndoLSN LSN // for CLR: the next record to undo (UndoNxtLSN in ARIES)
	Payload []byte
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is an append-only write-ahead log. Safe for concurrent use.
//
// After a checkpoint truncates the head (TruncateHead), records below the
// base LSN are gone: Read and Scan serve only (base, tail]. Recovery anchors
// at the checkpoint, so it never asks for the truncated prefix.
type Log struct {
	mu       sync.Mutex
	base     LSN      // records[i] has LSN base+i+1
	records  []Record // the retained tail of the log
	flushed  LSN      // highest durable LSN
	closed   bool
	flushCnt int64
	// sizeSinceCkpt approximates log bytes appended since the last
	// checkpoint record — the trigger for the next one.
	sizeSinceCkpt int64

	disk *diskLog // nil = in-memory backend
}

// New returns an empty in-memory log.
func New() *Log { return &Log{} }

// Append adds a record to the log buffer and returns its LSN. The record is
// not durable until Flush (or FlushTo covering it) is called. Append takes
// ownership of rec.Payload: the log keeps that slice (Read and Scan serve
// it) instead of a copy, so the caller must not write to it afterwards.
func (l *Log) Append(rec Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return NilLSN, ErrClosed
	}
	rec.LSN = l.base + LSN(len(l.records)) + 1
	l.records = append(l.records, rec)
	if rec.Type == RecCheckpoint && len(rec.Payload) > 0 {
		l.sizeSinceCkpt = 0
	} else {
		l.sizeSinceCkpt += int64(len(rec.Payload)) + recOverheadBytes
	}
	if l.disk != nil {
		// Header and payload are framed where they will be written from.
		d := l.disk
		start := len(d.pending)
		d.pending = append(appendRecordHeader(seglog.BeginFrame(d.pending), rec), rec.Payload...)
		seglog.EndFrame(d.pending, start)
	}
	return rec.LSN, nil
}

// recOverheadBytes is the accounted per-record framing cost.
const recOverheadBytes = 16

// Flush makes every appended record durable and returns the tail LSN.
func (l *Log) Flush() (LSN, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return NilLSN, ErrClosed
	}
	target := l.base + LSN(len(l.records))
	if l.disk != nil {
		if err := l.writePendingLocked(); err != nil {
			l.mu.Unlock()
			return NilLSN, err
		}
	}
	if target > l.flushed {
		l.flushed = target
		l.flushCnt++
	}
	d := l.disk
	l.mu.Unlock()
	if d != nil {
		if err := d.sync.AfterWrite(); err != nil {
			return NilLSN, err
		}
		if err := d.sync.Barrier(); err != nil {
			return NilLSN, err
		}
	}
	return target, nil
}

// FlushTo makes records up to and including lsn durable. Flushing an LSN that
// is already durable is a no-op (group commit piggybacking). On the disk
// backend the whole buffered tail is written (frames are cheap to write; the
// fsync barrier is the expensive part and covers exactly the caller's LSN).
func (l *Log) FlushTo(lsn LSN) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if lsn > l.base+LSN(len(l.records)) {
		tail := l.base + LSN(len(l.records))
		l.mu.Unlock()
		return fmt.Errorf("wal: flush to %d beyond tail %d", lsn, tail)
	}
	needSync := lsn > l.flushed
	if l.disk != nil && needSync {
		if err := l.writePendingLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	if needSync {
		l.flushed = l.base + LSN(len(l.records))
		if lsn > l.flushed {
			l.flushed = lsn
		}
		l.flushCnt++
	}
	d := l.disk
	l.mu.Unlock()
	if d != nil && needSync {
		if err := d.sync.AfterWrite(); err != nil {
			return err
		}
		if err := d.sync.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// TailLSN returns the LSN of the most recently appended record (durable or not).
func (l *Log) TailLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + LSN(len(l.records))
}

// Base returns the LSN below which records have been truncated away by a
// checkpoint (NilLSN when the full history is retained).
func (l *Log) Base() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// DurableLSN returns the highest LSN guaranteed to survive a crash.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// FlushCount reports how many logical flushes have been issued; benchmarks
// use it to show group-commit batching.
func (l *Log) FlushCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushCnt
}

// SizeSinceCheckpoint approximates the log bytes appended since the last
// checkpoint record — the checkpoint-trigger odometer.
func (l *Log) SizeSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sizeSinceCkpt
}

// SyncPolicy reports the disk backend's fsync policy (PolicyNone in memory).
func (l *Log) SyncPolicy() fsyncer.Policy {
	if l.disk == nil {
		return fsyncer.PolicyNone
	}
	return l.disk.sync.Policy()
}

// LastCheckpoint returns the LSN of the newest durable checkpoint record
// that carries a payload (an anchor), or NilLSN.
func (l *Log) LastCheckpoint() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := int(l.flushed - l.base); i > 0; i-- {
		r := l.records[i-1]
		if r.Type == RecCheckpoint && len(r.Payload) > 0 {
			return r.LSN
		}
	}
	return NilLSN
}

// Read returns the record at the given LSN.
func (l *Log) Read(lsn LSN) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn == NilLSN || lsn > l.base+LSN(len(l.records)) || lsn <= l.base {
		return Record{}, fmt.Errorf("wal: no record at LSN %d (log covers %d..%d)", lsn, l.base+1, l.base+LSN(len(l.records)))
	}
	return l.records[lsn-l.base-1], nil
}

// Scan calls fn on every record in [from, to] in LSN order. A zero `to`
// means the current tail; a `from` at or below the truncated base is clamped
// to the first retained record. Scanning stops early if fn returns false.
func (l *Log) Scan(from, to LSN, fn func(Record) bool) error {
	l.mu.Lock()
	recs := l.records
	base := l.base
	tail := base + LSN(len(recs))
	l.mu.Unlock()
	if from <= base {
		from = base + 1
	}
	if to == NilLSN || to > tail {
		to = tail
	}
	for lsn := from; lsn <= to; lsn++ {
		if !fn(recs[lsn-base-1]) {
			return nil
		}
	}
	return nil
}

// Prefix returns a new, fully durable in-memory log holding the records with
// LSN <= to. Point-in-time restore rebuilds a database from such a prefix
// (§4.4 of the paper: restore the database to a previous state, then restore
// the files according to the restored state identifier).
func (l *Log) Prefix(to LSN) *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	if to > l.base+LSN(len(l.records)) {
		to = l.base + LSN(len(l.records))
	}
	if to < l.base {
		to = l.base
	}
	return &Log{
		base:    l.base,
		records: append([]Record(nil), l.records[:to-l.base]...),
		flushed: to,
	}
}

// Crash simulates a machine failure and restart. The in-memory backend
// returns a new Log containing only the durable prefix. The disk backend
// drops its unwritten tail, closes its files, releases the directory lock
// and reopens the directory — the returned log holds whatever the "disk"
// (the OS page cache included; this is a process kill, not a power cut)
// retained. The original log is closed either way.
func (l *Log) Crash() *Log {
	l.mu.Lock()
	if l.disk != nil {
		cfg := l.disk.cfg
		l.killLocked()
		l.mu.Unlock()
		reopened, err := Open(cfg)
		if err != nil {
			panic(fmt.Sprintf("wal: reopen after crash: %v", err))
		}
		return reopened
	}
	defer l.mu.Unlock()
	l.closed = true
	return &Log{
		base:    l.base,
		records: append([]Record(nil), l.records[:l.flushed-l.base]...),
		flushed: l.flushed,
	}
}

// Kill simulates the process dying without a successor in hand: buffered
// records are dropped, files close, the directory lock is released, and the
// log is closed. A later Open over the same directory cold-starts from what
// reached the file system.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.killLocked()
}

// killLocked is Kill under l.mu.
func (l *Log) killLocked() {
	l.closed = true
	if d := l.disk; d != nil {
		d.pending = nil
		d.fileMu.Lock()
		if d.seg != nil {
			d.seg.Close()
			d.seg = nil
		}
		d.fileMu.Unlock()
		d.lock.Release()
	}
}

// Close marks the log closed. The disk backend first writes its buffered
// tail (and syncs it under a syncing policy) so a clean shutdown loses
// nothing, then releases the directory lock. Further appends fail.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if d := l.disk; d != nil {
		_ = l.writePendingLocked()
		d.fileMu.Lock()
		if d.seg != nil {
			if d.sync.Policy() != fsyncer.PolicyNone {
				_ = d.seg.Sync()
			}
			d.seg.Close()
			d.seg = nil
		}
		d.fileMu.Unlock()
		d.lock.Release()
	}
	l.closed = true
}
