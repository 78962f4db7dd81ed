// Package seglog holds the on-disk mechanisms the durable logs share — the
// repository WAL (internal/wal), the archive catalog (internal/catalog), the
// packfiles and loose blobs (internal/chunkdisk) and the repository
// checkpoint (internal/sqlmini): one record frame, one torn-tail repair, one
// atomic file replace, one directory fsync, one numbered-file naming scheme.
// Payload formats, in-memory state, locking and the fsync policy
// (internal/fsyncer) stay with each caller; every function here that can
// fsync takes the caller's policy as a plain bool and returns every error.
//
// Frame (WAL segments, catalog.log, the catalog.snap body):
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// little-endian, payload length in 1..MaxRecordBytes. A zero length is
// invalid on purpose: a zero-filled region must not read as a valid frame.
//
// Torn tails are expected, not fatal: a crash can leave a half-written final
// record. A reader keeps the longest valid prefix and hands the rest to
// RepairTail, which APPENDS it to a quarantine file before cutting it off — a
// second crash never destroys the first crash's evidence.
//
// The valid-prefix scan is one loop with two ways of looking at the record
// under its cursor: ValidPrefix over bytes already in memory (the WAL keeps
// its records there anyway), and Scanner.Scan over a file, through a sliding
// window that grows only to the largest record — what opening a log holds in
// memory is one record, however long the log.
package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// MaxRecordBytes bounds a framed payload: a larger length field is
// corruption, not a record, and must never size an allocation.
const MaxRecordBytes = 64 << 20

const frameHeaderLen = 8

// TmpSuffix is what ReplaceFile appends to its destination to name the
// in-flight temp file; a crash can strand one, so owners remove
// <file>+TmpSuffix when they open their directory.
const TmpSuffix = ".tmp"

// AppendFrame appends payload to dst as one frame and returns the extended
// buffer, growing it at most once.
func AppendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, frameHeaderLen+len(payload))
	start := len(dst)
	dst = append(BeginFrame(dst), payload...)
	EndFrame(dst, start)
	return dst
}

// BeginFrame and EndFrame frame a payload the caller builds in place, for
// when it is not one slice yet (the WAL's record header, then the payload it
// was handed): BeginFrame reserves the frame header at the end of dst, the
// caller appends the payload behind it, and EndFrame, given the length dst
// had before BeginFrame, fills the header in.
func BeginFrame(dst []byte) []byte {
	return append(dst, make([]byte, frameHeaderLen)...)
}

// EndFrame completes the frame begun at dst[start:]; see BeginFrame.
func EndFrame(dst []byte, start int) {
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
}

// frameLen reports how many bytes the frame whose header is hdr occupies,
// header included, or 0 when the length field is not one a frame can carry:
// zero, or beyond MaxRecordBytes.
func frameLen(hdr []byte) int64 {
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	if plen == 0 || plen > MaxRecordBytes {
		return 0
	}
	return frameHeaderLen + int64(plen)
}

// NextFrame reads the frame at the start of buf: its payload (aliasing buf)
// and the total bytes it occupies. ok is false when buf does not start with
// a whole frame whose length is in bounds and whose checksum matches.
func NextFrame(buf []byte) (payload []byte, n int, ok bool) {
	if len(buf) < frameHeaderLen {
		return nil, 0, false
	}
	total := frameLen(buf)
	if total == 0 || total > int64(len(buf)) {
		return nil, 0, false
	}
	payload = buf[frameHeaderLen:total]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, false
	}
	return payload, int(total), true
}

// walk is the scan loop, the only one: from offset 0 of a size-byte stream,
// claim reports how many bytes the record at the cursor says it occupies
// (<= 0: not a record), and accept — called only for a claim that ends
// inside the stream, so it may size a buffer by it — whether the record is
// one the caller keeps. The first refusal ends the walk; the offset reached
// is the length of the longest valid prefix.
func walk(size int64, claim func(off int64) int64, accept func(off, n int64) bool) int64 {
	off := int64(0)
	for off < size {
		n := claim(off)
		if n <= 0 || n > size-off || !accept(off, n) {
			break
		}
		off += n
	}
	return off
}

// ValidPrefix walks buf record by record and returns the length of its
// longest valid prefix. next inspects the record at the start of rest and
// reports how many bytes it occupies, or !ok when rest does not start with a
// record the caller accepts — bad framing, or a payload that fails the
// caller's own decode or sequence check. The walk stops there.
func ValidPrefix(buf []byte, next func(rest []byte) (n int, ok bool)) int {
	return int(walk(int64(len(buf)), func(off int64) int64 {
		n, ok := next(buf[off:])
		if !ok {
			return 0
		}
		return int64(n)
	}, func(_, _ int64) bool { return true }))
}

// scanChunk is how far a Scanner reads ahead of its cursor: a log of small
// records costs one read per scanChunk, not two per record.
const scanChunk = 64 << 10

// Scanner is the file-backed form of the scan. Its one buffer is a window
// that slides along the file and is reused from Scan to Scan (one Scanner can
// walk every file of a directory); it grows only when a single record is
// larger than it, and then to exactly that record.
type Scanner struct {
	buf   []byte // the window: stream bytes [lo, lo+len(buf))
	lo    int64
	chunk int // read-ahead, scanChunk when zero
}

// Scan walks the size bytes of r record by record and returns the length of
// their longest valid prefix. A record starts with hdrLen bytes from which
// claim reads the length of the whole record, header included (<= 0 when the
// header is not one a record can start with). A claim that reaches past the
// end of the stream, or past hdrLen+MaxRecordBytes, ends the scan before
// anything is read or sized by it. next is handed each whole record (valid
// only during the call) with its offset and reports whether the caller
// accepts it — checksum, decode, sequence. Only a read error is an error.
func (sc *Scanner) Scan(r io.ReaderAt, size int64, hdrLen int, claim func(hdr []byte) int64, next func(rec []byte, off int64) bool) (valid int64, err error) {
	sc.buf, sc.lo = sc.buf[:0], 0
	valid = walk(size, func(off int64) int64 {
		if size-off < int64(hdrLen) {
			return 0
		}
		var hdr []byte
		if hdr, err = sc.window(r, size, off, hdrLen); err != nil {
			return 0
		}
		n := claim(hdr)
		if n < int64(hdrLen) || n-int64(hdrLen) > MaxRecordBytes {
			return 0
		}
		return n
	}, func(off, n int64) bool {
		var rec []byte
		if rec, err = sc.window(r, size, off, int(n)); err != nil {
			return false
		}
		return next(rec, off)
	})
	return valid, err
}

// ScanFrames is Scan over a stream of frames: next sees each payload whose
// length is in bounds and whose checksum matches.
func (sc *Scanner) ScanFrames(r io.ReaderAt, size int64, next func(payload []byte) bool) (valid int64, err error) {
	return sc.Scan(r, size, frameHeaderLen, frameLen, func(rec []byte, _ int64) bool {
		payload, _, ok := NextFrame(rec)
		return ok && next(payload)
	})
}

// window returns the n bytes of r at off, which the caller has checked end
// inside the stream and start inside or right after the current window. The
// bytes still buffered from off on slide to the front and the rest of the
// buffer is refilled from the file — the read-ahead; only a record larger
// than the buffer reallocates it.
func (sc *Scanner) window(r io.ReaderAt, size, off int64, n int) ([]byte, error) {
	have := sc.buf[off-sc.lo:]
	if len(have) >= n {
		return have[:n], nil
	}
	want := sc.chunk
	if want == 0 {
		want = scanChunk
	}
	want = max(n, cap(sc.buf), int(min(int64(want), size-off)))
	buf := sc.buf[:cap(sc.buf)]
	if want > len(buf) {
		buf = make([]byte, want)
	}
	kept := copy(buf, have)
	buf = buf[:min(int64(len(buf)), size-off)]
	if _, err := r.ReadAt(buf[kept:], off+int64(kept)); err != nil {
		sc.buf, sc.lo = sc.buf[:0], off
		return nil, err
	}
	sc.buf, sc.lo = buf, off
	return buf[:n], nil
}

// RepairTail cuts the file at path back to its first valid bytes: everything
// from there to the end of the file is copied, file to file, onto the end of
// the quarantine file, then the file is truncated — or removed, when nothing
// valid is left in it. With sync the quarantine file and the directory are
// fsynced.
func RepairTail(path string, valid int64, quarantine string, sync bool) error {
	if err := quarantineTail(path, valid, quarantine, sync); err != nil {
		return fmt.Errorf("quarantining torn tail: %w", err)
	}
	var err error
	if valid == 0 {
		err = os.Remove(path)
	} else {
		err = os.Truncate(path, valid)
	}
	if err != nil {
		return fmt.Errorf("truncating torn tail: %w", err)
	}
	if sync {
		return SyncDir(filepath.Dir(path))
	}
	return nil
}

// quarantineTail appends the bytes of the file at path from offset valid on
// to the quarantine file, creating it only when there is something to keep.
func quarantineTail(path string, valid int64, quarantine string, sync bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || info.Size() <= valid {
		return err
	}
	q, err := os.OpenFile(quarantine, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = io.Copy(q, io.NewSectionReader(f, valid, info.Size()-valid))
	if err == nil && sync {
		err = q.Sync()
	}
	if cerr := q.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory: POSIX does not make a created, renamed or
// removed entry durable until its directory is synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("syncing directory %s: %w", dir, err)
	}
	return nil
}

// ReplaceFile atomically replaces dst with data: write dst+TmpSuffix, rename
// it over dst. A crash leaves either the old file or the new one, never a
// mixture. With sync the temp file is fsynced before the rename and the
// directory after it — what replaces durable state must not be more volatile
// than the state it replaces. fsyncs reports how many fsyncs were issued
// (callers that meter their device flushes add it to their count). On error
// the temp file is removed.
func ReplaceFile(dst string, data []byte, sync bool) (fsyncs int, err error) {
	tmp := dst + TmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		if err = f.Sync(); err == nil {
			fsyncs++
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
		return fsyncs, err
	}
	if sync {
		if err := SyncDir(filepath.Dir(dst)); err != nil {
			return fsyncs, err
		}
		fsyncs++
	}
	return fsyncs, nil
}

// Segments names a family of numbered files in one directory:
// Dir/<Prefix><sequence, zero-padded to Width digits><Suffix>. Sequences
// start at 1.
type Segments struct {
	Dir, Prefix, Suffix string
	Width               int
}

// Path returns the file path of sequence seq.
func (s Segments) Path(seq uint64) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s%0*d%s", s.Prefix, s.Width, seq, s.Suffix))
}

// List returns the sequences present in the directory, ascending. A file
// that wears the family's prefix and suffix around anything but the padded
// form of a positive number is an error, not a file to skip: ignoring it
// could hide a segment.
func (s Segments) List() ([]uint64, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, s.Prefix) || !strings.HasSuffix(name, s.Suffix) {
			continue
		}
		// Only the name Path would print is accepted: a positive number
		// zero-padded to Width digits, wider only when it needs to be.
		numeral := strings.TrimSuffix(strings.TrimPrefix(name, s.Prefix), s.Suffix)
		seq, perr := strconv.ParseUint(numeral, 10, 64)
		if perr != nil || seq == 0 || len(numeral) < s.Width || (len(numeral) > s.Width && numeral[0] == '0') {
			return nil, fmt.Errorf("bad segment name %q", name)
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Create starts the file of sequence seq, which must not exist, writes header
// (if any) at its start and returns it open read-write. With sync the
// directory is fsynced so the new name survives a power loss — without that
// a crash can vanish the whole file after appends to it were acknowledged.
// On error nothing is left behind.
func (s Segments) Create(seq uint64, header []byte, sync bool) (*os.File, error) {
	path := s.Path(seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if len(header) > 0 {
		_, err = f.Write(header)
	}
	if err == nil && sync {
		err = SyncDir(s.Dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}
