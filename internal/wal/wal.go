// Package wal implements a write-ahead log with LSN addressing, per-transaction
// backchaining, group flush, and crash simulation. Both the host database
// (internal/sqlmini) and the DLFM repository log through this package.
//
// A log is a directory (Open): the record stream lives in seglog-framed,
// size-bounded segment files under a single-owner lock, with Flush/FlushTo
// routed through an fsyncer policy. Appended records are buffered and
// volatile until a flush writes them; Crash drops that buffer, closes the
// files and reopens the directory, which replays the longest valid prefix
// and quarantines any torn tail.
//
// The retained tail is also held in memory (Read and Scan serve it) as
// fixed-size blocks of records: an append fills the last block or adds a
// fresh one and never copies an earlier record, and a checkpoint's
// TruncateHead drops whole blocks instead of reallocating the survivors.
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
// base LSN are gone: Read and Scan serve only (base, tail]. Recovery anchors
// at the checkpoint, so it never asks for the truncated prefix.
//
// The retained tail is a recTail of fixed-size record blocks. A Scan works
// on a copy of the recTail taken under mu and reads it after unlocking: the
// slots that copy covers are never written again, and a head drop replaces
// the block index rather than editing it, so the copy stays valid across
// any concurrent Append or TruncateHead.
//
// The pending buffer and the written watermark are guarded by mu; the file
// handle and segment list by fileMu (lock order: mu before fileMu), so the
// fsyncer's flush callback can sync the active segment without blocking
// appends.
type Log struct {
	mu       sync.Mutex
	base     LSN     // records.at(i) has LSN base+i+1
	records  recTail // the retained tail of the log
	flushed  LSN     // highest durable LSN
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
}

// blockRecords is the number of records in one block of the retained tail:
// 255 records of 64 bytes plus the allocator's 8-byte header fill a 16 KiB
// size class, where 256 would spill into the 18 KiB one.
const blockRecords = 255

// recBlock is one block of the retained tail. Each slot is written once, by
// the Append that fills it, and never again: not by a later append, not by
// a head drop.
type recBlock [blockRecords]Record

// recTail is a run of records held in blocks: record i is slot off+i of the
// concatenated blocks. Appends fill the last block or add a fresh one, so an
// earlier record is never copied or moved; dropHead forgets whole leading
// blocks by building a new (small) block index. A value copy is a stable
// view of the records it covers.
type recTail struct {
	blocks []*recBlock
	off    int // slot in blocks[0] of record 0
	n      int // records held
}

// at returns record i, 0 <= i < n.
func (t *recTail) at(i int) *Record {
	j := t.off + i
	return &t.blocks[j/blockRecords][j%blockRecords]
}

// push appends one record.
func (t *recTail) push(rec Record) {
	j := t.off + t.n
	if j == len(t.blocks)*blockRecords {
		t.blocks = append(t.blocks, new(recBlock))
	}
	t.blocks[j/blockRecords][j%blockRecords] = rec
	t.n++
}

// dropHead forgets the first k records, 0 <= k <= n. Whole blocks leave
// through a fresh index; the blocks themselves are never cleared, because a
// view taken before the drop may still be reading them.
func (t *recTail) dropHead(k int) {
	j := t.off + k
	if whole := j / blockRecords; whole > 0 {
		t.blocks = append([]*recBlock(nil), t.blocks[whole:]...)
	}
	t.off = j % blockRecords
	t.n -= k
}

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
	rec.LSN = l.base + LSN(l.records.n) + 1
	l.records.push(rec)
	if rec.Type == RecCheckpoint && len(rec.Payload) > 0 {
		l.sizeSinceCkpt = 0
	} else {
		l.sizeSinceCkpt += int64(len(rec.Payload)) + recOverheadBytes
	}
	// Header and payload are framed where they will be written from.
	start := len(l.pending)
	l.pending = append(appendRecordHeader(seglog.BeginFrame(l.pending), rec), rec.Payload...)
	seglog.EndFrame(l.pending, start)
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
	target := l.base + LSN(l.records.n)
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
	if lsn > l.base+LSN(l.records.n) {
		tail := l.base + LSN(l.records.n)
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
	l.flushed = l.base + LSN(l.records.n)
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
	return l.base + LSN(l.records.n)
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

// Read returns the record at the given LSN.
func (l *Log) Read(lsn LSN) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn == NilLSN || lsn > l.base+LSN(l.records.n) || lsn <= l.base {
		return Record{}, fmt.Errorf("wal: no record at LSN %d (log covers %d..%d)", lsn, l.base+1, l.base+LSN(l.records.n))
	}
	return *l.records.at(int(lsn - l.base - 1)), nil
}

// Scan calls fn on every record in [from, to] in LSN order. A zero `to`
// means the current tail; a `from` at or below the truncated base is clamped
// to the first retained record. Scanning stops early if fn returns false.
func (l *Log) Scan(from, to LSN, fn func(Record) bool) error {
	l.mu.Lock()
	recs := l.records
	base := l.base
	tail := base + LSN(recs.n)
	l.mu.Unlock()
	if from <= base {
		from = base + 1
	}
	if to == NilLSN || to > tail {
		to = tail
	}
	for lsn := from; lsn <= to; lsn++ {
		if !fn(*recs.at(int(lsn - base - 1))) {
			return nil
		}
	}
	return nil
}

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
