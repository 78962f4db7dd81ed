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
// record. A reader keeps the longest valid prefix (ValidPrefix) and hands the
// rest to RepairTail, which APPENDS it to a quarantine file before cutting
// it off — a second crash never destroys the first crash's evidence.
package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// NextFrame reads the frame at the start of buf: its payload (aliasing buf)
// and the total bytes it occupies. ok is false when buf does not start with
// a whole frame whose length is in bounds and whose checksum matches.
func NextFrame(buf []byte) (payload []byte, n int, ok bool) {
	if len(buf) < frameHeaderLen {
		return nil, 0, false
	}
	plen := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if plen == 0 || plen > MaxRecordBytes || uint64(len(buf)-frameHeaderLen) < uint64(plen) {
		return nil, 0, false
	}
	n = frameHeaderLen + int(plen)
	payload = buf[frameHeaderLen:n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, n, true
}

// ValidPrefix walks buf record by record and returns the length of its
// longest valid prefix. next inspects the record at the start of rest and
// reports how many bytes it occupies, or !ok when rest does not start with a
// record the caller accepts — bad framing, or a payload that fails the
// caller's own decode or sequence check. The walk stops there.
func ValidPrefix(buf []byte, next func(rest []byte) (n int, ok bool)) int {
	off := 0
	for off < len(buf) {
		n, ok := next(buf[off:])
		if !ok || n <= 0 || n > len(buf)-off {
			break
		}
		off += n
	}
	return off
}

// RepairTail cuts the file at path, whose whole content is data, back to its
// first valid bytes: the invalid suffix data[valid:] is appended to the
// quarantine file, then the file is truncated — or removed, when nothing
// valid is left in it. With sync the quarantine file and the directory are
// fsynced.
func RepairTail(path string, data []byte, valid int, quarantine string, sync bool) error {
	if valid < len(data) {
		q, err := os.OpenFile(quarantine, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("quarantining torn tail: %w", err)
		}
		_, err = q.Write(data[valid:])
		if err == nil && sync {
			err = q.Sync()
		}
		if cerr := q.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("quarantining torn tail: %w", err)
		}
	}
	var err error
	if valid == 0 {
		err = os.Remove(path)
	} else {
		err = os.Truncate(path, int64(valid))
	}
	if err != nil {
		return fmt.Errorf("truncating torn tail: %w", err)
	}
	if sync {
		return SyncDir(filepath.Dir(path))
	}
	return nil
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
