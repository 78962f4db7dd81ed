// Package wal implements a write-ahead log with LSN addressing, per-transaction
// backchaining, group flush, and crash simulation. Both the host database
// (internal/sqlmini) and the DLFM repository log through this package.
//
// A log is a directory (Open): the record stream lives in seglog-framed,
// size-bounded segment files under a single-owner lock, with Flush/FlushTo
// routed through an fsyncer policy. Appended records are framed into a
// write buffer and volatile until a flush writes them; Crash drops that
// buffer, closes the files and reopens the directory, which validates the
// longest valid prefix and quarantines any torn tail.
//
// The log holds no record in memory: Append frames the record where it will
// be written from, and Scan reads the segment files back, then the frames
// not yet written. A transaction undoes from its own list of changes, and
// restart recovery and a point-in-time restore scan the segments, so a
// process that logs for years holds its write buffer and nothing more.
package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"datalinks/internal/dirlock"
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
// base LSN are gone: Scan serves only (base, tail]. Recovery anchors at the
// checkpoint, so it never asks for the truncated prefix.
//
// The pending buffer and the written watermark are guarded by mu; the file
// handle and segment list by fileMu (lock order: mu before fileMu), so the
// fsyncer's flush callback can sync the active segment without blocking
// appends.
type Log struct {
	mu       sync.Mutex
	base     LSN // records at or below base are truncated away
	tail     LSN // the last record appended
	flushed  LSN // highest durable LSN
	closed   bool
	flushCnt int64
	// sizeSinceCkpt approximates log bytes appended since the last
	// checkpoint record — the trigger for the next one.
	sizeSinceCkpt int64

	cfg       Config
	lock      *dirlock.Lock
	sync      *fsyncer.Syncer
	pending   []byte // frames appended since the last write (under mu)
	written   LSN    // highest LSN whose frame reached the file (under mu)
	tornBytes int64  // bytes quarantined to wal.torn at open

	fileMu  sync.Mutex
	files   seglog.Segments
	seg     *os.File // active (last) segment
	segSize int64
	segs    []uint64 // first LSN of every segment, ascending; the last is active
	// scans counts the Scans reading segment files; while one runs, the
	// segments TruncateHead drops wait in doomed, oldest first, and the
	// last Scan to finish removes them.
	scans  int
	doomed []uint64
}

// Append adds a record to the log buffer and returns its LSN. The record is
// not durable until Flush (or FlushTo covering it) is called. Header and
// payload are framed into the write buffer, and the log keeps no reference
// to rec.Payload: the caller may reuse it once Append returns.
func (l *Log) Append(rec Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return NilLSN, ErrClosed
	}
	l.tail++
	rec.LSN = l.tail
	l.count(&rec)
	start := len(l.pending)
	l.pending = append(appendRecordHeader(seglog.BeginFrame(l.pending), rec), rec.Payload...)
	seglog.EndFrame(l.pending, start)
	return rec.LSN, nil
}

// count advances the checkpoint odometer past rec: a checkpoint record that
// carries its anchor resets it.
func (l *Log) count(rec *Record) {
	if rec.Type == RecCheckpoint && len(rec.Payload) > 0 {
		l.sizeSinceCkpt = 0
	} else {
		l.sizeSinceCkpt += int64(len(rec.Payload)) + recOverheadBytes
	}
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
	target := l.tail
	if err := l.writePendingLocked(); err != nil {
		l.mu.Unlock()
		return NilLSN, err
	}
	if target > l.flushed {
		l.flushed = target
		l.flushCnt++
	}
	l.mu.Unlock()
	if err := l.sync.AfterWrite(); err != nil {
		return NilLSN, err
	}
	if err := l.sync.Barrier(); err != nil {
		return NilLSN, err
	}
	return target, nil
}

// FlushTo makes records up to and including lsn durable. Flushing an LSN that
// is already durable is a no-op (group commit piggybacking). The whole
// buffered tail is written (frames are cheap to write; the fsync barrier is
// the expensive part and covers exactly the caller's LSN).
func (l *Log) FlushTo(lsn LSN) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if lsn > l.tail {
		tail := l.tail
		l.mu.Unlock()
		return fmt.Errorf("wal: flush to %d beyond tail %d", lsn, tail)
	}
	if lsn <= l.flushed {
		l.mu.Unlock()
		return nil
	}
	if err := l.writePendingLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.flushed = l.tail
	l.flushCnt++
	l.mu.Unlock()
	if err := l.sync.AfterWrite(); err != nil {
		return err
	}
	return l.sync.Barrier()
}

// TailLSN returns the LSN of the most recently appended record (durable or not).
func (l *Log) TailLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
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

// SyncPolicy reports the log's fsync policy.
func (l *Log) SyncPolicy() fsyncer.Policy { return l.sync.Policy() }

// Crash simulates a process kill and restart: the unwritten tail is
// dropped, the files close, the directory lock is released and the
// directory is reopened. The returned log holds whatever the "disk" (the OS
// page cache included; this is a process kill, not a power cut) retained;
// an error means the directory could not be reopened. The original log is
// closed either way.
func (l *Log) Crash() (*Log, error) {
	l.mu.Lock()
	cfg := l.cfg
	l.killLocked()
	l.mu.Unlock()
	reopened, err := Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen after crash: %w", err)
	}
	return reopened, nil
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
	l.pending = nil
	l.fileMu.Lock()
	if l.seg != nil {
		l.seg.Close()
		l.seg = nil
	}
	l.fileMu.Unlock()
	l.lock.Release()
}

// Close marks the log closed. It first writes the buffered tail (and syncs
// it under a syncing policy) so a clean shutdown loses nothing, then
// releases the directory lock. Further appends fail. The error is the final
// write's or sync's: the log is closed either way, but records it reports
// may not have reached stable storage. Closing a closed log returns nil.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.writePendingLocked()
	l.fileMu.Lock()
	if l.seg != nil {
		if l.sync.Policy() != fsyncer.PolicyNone {
			if serr := l.seg.Sync(); serr != nil && err == nil {
				err = fmt.Errorf("wal: syncing %s at close: %w", l.seg.Name(), serr)
			}
		}
		l.seg.Close()
		l.seg = nil
	}
	l.fileMu.Unlock()
	l.lock.Release()
	l.closed = true
	return err
}
