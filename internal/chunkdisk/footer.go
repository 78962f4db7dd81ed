package chunkdisk

// The pack footer: a sealed pack's index of its own records, appended after
// the last one.
//
//	entry   = hash [32] | offset uint64 | dataLen uint32 | logicalLen uint32 | flags [1]
//	footer  = entry × count | count uint32 | bodyLen uint64 | CRC-32 uint32 | footerMagic [8]
//
// offset is where the record's header starts in the file and bodyLen where
// the footer does: the magic and the records before it. The CRC covers the
// entries, count and bodyLen. A footer is accepted only whole: the file is
// exactly bodyLen plus the footer long, the CRC matches, and the entries
// tile the body — the first starts right after the pack magic, each next one
// where the one before ends, the last ends at bodyLen — with lengths a record
// may have, logicalLen equal to dataLen and flags 0, as a writer sets them. So
// a footer lists exactly the records a scan of the body would find, in the
// order it would find them. An entry flagged compressed under a matching CRC
// is the retired form (see packFlagCompressed in pack.go), which the reader
// reports rather than pass over. The decoder checks the footer alone; an open
// reads it only in a pack marked sealed (see sealedPackMagic in pack.go).

import (
	"encoding/binary"
	"hash/crc32"
	"io"

	"datalinks/internal/extent"
	"datalinks/internal/seglog"
)

// footerMagic ends every footered pack.
var footerMagic = [8]byte{'D', 'L', 'P', 'F', 'O', 'O', 'T', '1'}

const (
	footerEntryLen   = 32 + 8 + 4 + 4 + 1
	footerTrailerLen = 4 + 8 + 4 + 8 // count | bodyLen | CRC | magic
)

// footerEntry is one record of a pack as its footer lists it.
type footerEntry struct {
	hash extent.Hash
	off  int64 // record (header) offset in the pack
	size int64 // dataLen: the blob's length
}

// meta is where the entry's payload lies in pack seq.
func (e *footerEntry) meta(seq int64) diskMeta {
	return diskMeta{size: e.size, pack: seq, off: e.off + packRecHdrLen + packRecMeta}
}

// footerLen is the length of a footer listing n records.
func footerLen(n int) int64 { return int64(n)*footerEntryLen + footerTrailerLen }

// appendFooter appends the footer of a pack whose body — magic and the
// records entries lists — is bodyLen bytes long.
func appendFooter(dst []byte, entries []footerEntry, bodyLen int64) []byte {
	start := len(dst)
	for i := range entries {
		e := &entries[i]
		dst = append(dst, e.hash[:]...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.size))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.size))
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(bodyLen))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return append(dst, footerMagic[:]...)
}

// footerReader reads pack footers through buffers it keeps from pack to pack:
// one open reads every pack's footer with it.
type footerReader struct {
	buf     []byte
	entries []footerEntry // the last footer read
	// retired: the last footer read matches its CRC and lists an entry in
	// the retired compressed form.
	retired bool
	trail   [footerTrailerLen]byte
}

// trailer reads the record count and body length a pack of size bytes claims
// in its trailer, unchecked but for the magic and for agreeing with size.
func (fr *footerReader) trailer(r io.ReaderAt, size int64) (count int, bodyLen int64, ok bool) {
	if size < int64(len(packMagic))+footerTrailerLen {
		return 0, 0, false
	}
	t := fr.trail[:]
	if _, err := r.ReadAt(t, size-footerTrailerLen); err != nil || [8]byte(t[16:]) != footerMagic {
		return 0, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(t[0:4]))
	bodyLen = int64(binary.LittleEndian.Uint64(t[4:12]))
	if bodyLen < int64(len(packMagic)) || bodyLen > size || (size-bodyLen-footerTrailerLen) != n*footerEntryLen {
		return 0, 0, false
	}
	return int(n), bodyLen, true
}

// read decodes the footer of a pack of size bytes into fr.entries and
// returns the body length, reporting false for a pack without a whole, valid
// footer.
func (fr *footerReader) read(r io.ReaderAt, size int64) (bodyLen int64, ok bool) {
	fr.entries, fr.retired = fr.entries[:0], false
	n, bodyLen, ok := fr.trailer(r, size)
	if !ok {
		return 0, false
	}
	fl := int(footerLen(n))
	if cap(fr.buf) < fl {
		fr.buf = make([]byte, fl)
	}
	buf := fr.buf[:fl]
	if _, err := r.ReadAt(buf, bodyLen); err != nil {
		return 0, false
	}
	sumAt := fl - footerTrailerLen + 12
	if crc32.ChecksumIEEE(buf[:sumAt]) != binary.LittleEndian.Uint32(buf[sumAt:]) {
		return 0, false
	}
	next := int64(len(packMagic))
	for i := 0; i < n; i++ {
		b := buf[i*footerEntryLen : (i+1)*footerEntryLen]
		if b[48] == packFlagCompressed {
			fr.retired = true
			return 0, false
		}
		e := footerEntry{
			hash: extent.Hash(b[0:32]),
			off:  int64(binary.LittleEndian.Uint64(b[32:40])),
			size: int64(binary.LittleEndian.Uint32(b[40:44])),
		}
		if e.off != next || e.size > seglog.MaxRecordBytes || b[48] != 0 || binary.LittleEndian.Uint32(b[44:48]) != uint32(e.size) {
			return 0, false
		}
		if next += packRecHdrLen + packRecMeta + e.size; next > bodyLen {
			return 0, false
		}
		fr.entries = append(fr.entries, e)
	}
	if next != bodyLen {
		return 0, false
	}
	return bodyLen, true
}
