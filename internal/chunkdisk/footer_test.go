package chunkdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/seglog"
)

// indexImage is everything an open builds from the packs: the counters, what
// the index holds per hash and the accounting of every pack.
type indexImage struct {
	stats Stats
	blobs map[extent.Hash]blobState
	packs map[int64][3]int64 // live bytes, dead bytes, blobs
}

func imageOf(s *Store) indexImage {
	img := indexImage{stats: s.Stats(), blobs: map[extent.Hash]blobState{}, packs: map[int64][3]int64{}}
	for i := range s.shards {
		for h, b := range s.shards[i].blobs {
			img.blobs[h] = b
		}
	}
	for seq, pm := range s.packs.packs {
		img.packs[seq] = [3]int64{pm.live, pm.dead, pm.blobs}
	}
	return img
}

// openScanned opens cfg on a copy of its directory's packs with their
// footers stripped, the way a store without footers would: every pack
// scanned.
func openScanned(t *testing.T, cfg Config) *Store {
	t.Helper()
	scanDir := t.TempDir()
	for _, name := range packFilesOnDisk(t, cfg.Dir) {
		data, err := os.ReadFile(filepath.Join(cfg.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(scanDir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stripFooter(t, path)
	}
	cfg.Dir = scanDir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFooterEqualsScan opens one directory through its footers and a copy of
// it with every footer stripped, so every pack is scanned: the two opens build the same index — the same meta
// per hash, the same live, dead and blob counts per pack — and the same
// counters. The directory has records of many lengths, a hash written twice
// (the later record dead space from the start), swept records and a pack a
// crash left without a footer.
func TestFooterEqualsScan(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, PackTargetBytes: 4 << 10, packGarbageRatio: 0.9}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []extent.Hash
	for i := 0; i < 24; i++ {
		data, h := randomBlob(int64(i), 500+37*i)
		put(t, s, data, h)
		hashes = append(hashes, h)
	}
	for i := 1; i < len(hashes); i += 4 { // a few from every pack: none empties
		s.Release(hashes[i])
	}
	if freed := s.Sweep(); freed != 6 {
		t.Fatalf("sweep freed %d, want 6", freed)
	}
	again, h := randomBlob(1, 537) // swept above: written once more
	put(t, s, again, h)
	s.Crash()

	// The first open scans the crashed pack and footers it.
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.scannedPacks != 1 {
		t.Fatalf("the first open scanned %d packs, want the crashed one", s.scannedPacks)
	}
	s.Close()

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	footered := imageOf(s)
	if s.scannedPacks != 0 {
		t.Fatalf("an open of footered packs scanned %d", s.scannedPacks)
	}
	s.Close()
	s = openScanned(t, cfg)
	scanned := imageOf(s)
	if s.scannedPacks != len(scanned.packs) {
		t.Fatalf("the scanning open scanned %d of %d packs", s.scannedPacks, len(scanned.packs))
	}
	s.Close()

	if len(footered.packs) < 3 {
		t.Fatalf("fixture too small: %d packs", len(footered.packs))
	}
	var dead int64
	for _, p := range footered.packs {
		dead += p[1]
	}
	if dead == 0 {
		t.Fatal("fixture has no dead record")
	}
	if !reflect.DeepEqual(footered, scanned) {
		t.Fatalf("footer open:\n%+v\nscan open:\n%+v", footered, scanned)
	}
}

// sealedPack writes n blobs to a fresh directory, closes the store — which
// footers the pack — and returns the pack's bytes, its body length and the
// blobs.
func sealedPack(t *testing.T, n int) (full []byte, body int64, datas [][]byte, hashes []extent.Hash) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		data, h := blob(70+i, 400+50*i)
		put(t, s, data, h)
		datas, hashes = append(datas, data), append(hashes, h)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err = os.ReadFile(filepath.Join(dir, packFilesOnDisk(t, dir)[0]))
	if err != nil {
		t.Fatal(err)
	}
	var fr footerReader
	body, ok := fr.read(bytes.NewReader(full), int64(len(full)))
	if !ok || len(fr.entries) != n {
		t.Fatalf("the sealed pack's footer: ok=%v, %d entries", ok, len(fr.entries))
	}
	return full, body, datas, hashes
}

// TestTornFooterEveryByteBoundary: a footer cut at every byte boundary, or
// with any one of its bytes flipped, is not trusted. The open scans the pack,
// adopts every record, quarantines the footer's bytes to .torn, and writes
// the footer afresh, so the next open reads it and scans nothing.
func TestTornFooterEveryByteBoundary(t *testing.T) {
	const records = 3
	full, body, datas, hashes := sealedPack(t, records)
	const name = "pack-00000001.pk"
	damaged := func(pack []byte) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		st := s.Stats()
		if s.scannedPacks != 1 || st.DiskBlobs != records || st.PackTornBytes != int64(len(pack))-body {
			t.Fatalf("scanned %d packs, adopted %d blobs, %d torn bytes; want 1, %d, %d",
				s.scannedPacks, st.DiskBlobs, st.PackTornBytes, records, int64(len(pack))-body)
		}
		for i, h := range hashes {
			if !s.Ref(h) || !bytes.Equal(get(t, s, h), datas[i]) {
				t.Fatalf("record %d not served", i)
			}
		}
		s.Close()
		if torn, _ := os.ReadFile(filepath.Join(dir, name+".torn")); !bytes.Equal(torn, pack[body:]) {
			t.Fatalf("quarantine holds %d bytes, want the footer's %d", len(torn), len(pack[body:]))
		}
		if got, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(got, full) {
			t.Fatal("the repaired pack is not its records and a fresh footer")
		}
		s, err = Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if s.scannedPacks != 0 || s.Stats().DiskBlobs != records {
			t.Fatalf("the next open scanned %d packs and adopted %d blobs", s.scannedPacks, s.Stats().DiskBlobs)
		}
		s.Close()
	}
	for cut := body; cut < int64(len(full)); cut++ {
		damaged(full[:cut])
	}
	for at := body; at < int64(len(full)); at++ {
		flipped := bytes.Clone(full)
		flipped[at] ^= 0x10
		damaged(flipped)
	}
}

// TestKillBetweenFooterAndFsync: a process killed after writing a pack's
// footer but before the fsync that would make it durable loses nothing. The
// pack is not marked sealed, so the next open does not trust the footer: it
// scans the records, quarantines the footer's bytes as a torn tail, seals the
// pack afresh and serves every blob.
func TestKillBetweenFooterAndFsync(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: fsyncer.PolicyGroup}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var datas [][]byte
	var hashes []extent.Hash
	for i := 0; i < 5; i++ {
		data, h := blob(80+i, 900)
		put(t, s, data, h)
		datas, hashes = append(datas, data), append(hashes, h)
	}
	killed := errors.New("killed before the fsync")
	fsyncs := s.Stats().Fsyncs
	s.afterFooterWrite = func() error { return killed }
	if err := s.Close(); err != killed {
		t.Fatalf("close = %v, want the kill", err)
	}
	if s.Stats().Fsyncs != fsyncs {
		t.Fatal("the pack was fsynced after the kill")
	}
	path := filepath.Join(dir, packFilesOnDisk(t, dir)[0])
	killedPack, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if [8]byte(killedPack) != packMagic {
		t.Fatalf("the killed pack starts %q, want it unsealed", killedPack[:8])
	}
	footer := footerLen(len(hashes))
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); s.scannedPacks != 1 || st.DiskBlobs != 5 || st.PackTornBytes != footer {
		t.Fatalf("reopen scanned %d packs, adopted %d blobs, %d torn bytes; want 1, 5, %d",
			s.scannedPacks, st.DiskBlobs, st.PackTornBytes, footer)
	}
	for i, h := range hashes {
		if !s.Ref(h) || !bytes.Equal(get(t, s, h), datas[i]) {
			t.Fatalf("blob %d lost", i)
		}
	}
	if sealed, _ := os.ReadFile(path); [8]byte(sealed) != sealedPackMagic || !bytes.Equal(sealed[8:], killedPack[8:]) {
		t.Fatal("the reopen did not seal the pack with the footer the kill left")
	}
}

// TestRepairClearsTheSealMarkBeforeTheCut: repairing a sealed pack whose
// footer is torn clears its seal mark before cutting the tail, so a process
// killed before the fresh footer is durable leaves a pack the next open scans
// rather than one that is marked sealed and ends in a record's payload.
func TestRepairClearsTheSealMarkBeforeTheCut(t *testing.T) {
	full, body, _, hashes := sealedPack(t, 3)
	var fr footerReader
	fr.read(bytes.NewReader(full), int64(len(full)))
	torn := full[:len(full)-5]
	dir := t.TempDir()
	path := filepath.Join(dir, "pack-00000001.pk")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	killed := errors.New("killed before the fsync")
	s.afterFooterWrite = func() error { return killed }
	if err := s.repairPack(path, int64(len(torn)), body, true, fr.entries); err != killed {
		t.Fatalf("repair = %v, want the kill", err)
	}
	s.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if [8]byte(got) != packMagic || !bytes.Equal(got[8:], full[8:]) {
		t.Fatalf("the killed repair left a pack starting %q, %d bytes; want it unsealed over the records and the fresh footer", got[:8], len(got))
	}
	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); s.scannedPacks != 1 || st.DiskBlobs != int64(len(hashes)) {
		t.Fatalf("the next open scanned %d packs and adopted %d blobs", s.scannedPacks, st.DiskBlobs)
	}
}

// TestForgedFooterIsNotTrusted: a blob's payload ending in a footer that a
// crashed pack's tail would pass for — CRC, length and one entry tiling the
// whole body under a made-up hash — is not trusted, because the pack is not
// marked sealed. The open scans the pack and indexes every record, the
// forger's blob and the ones before it.
func TestForgedFooterIsNotTrusted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var datas [][]byte
	var hashes []extent.Hash
	size := int64(len(packMagic))
	for i := 0; i < 3; i++ {
		data, h := blob(90+i, 700)
		put(t, s, data, h)
		datas, hashes = append(datas, data), append(hashes, h)
		size += packRecHdrLen + packRecMeta + int64(len(data))
	}
	// The forger's payload: filler, then a footer for the pack as it will
	// be once the payload is appended.
	filler := bytes.Repeat([]byte{'x'}, 300)
	size += packRecHdrLen + packRecMeta + int64(len(filler))
	made := footerEntry{hash: extent.Hash{1}, off: int64(len(packMagic)), size: size - int64(len(packMagic)) - packRecHdrLen - packRecMeta}
	forged := append(filler, appendFooter(nil, []footerEntry{made}, size)...)
	h := extent.Hash(sha256.Sum256(forged))
	put(t, s, forged, h)
	datas, hashes = append(datas, forged), append(hashes, h)
	s.Crash()

	path := filepath.Join(dir, packFilesOnDisk(t, dir)[0])
	pack, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fr footerReader
	if body, ok := fr.read(bytes.NewReader(pack), int64(len(pack))); !ok || body != size {
		t.Fatalf("the forged footer does not pass the decoder (ok=%v, body %d of %d): the test forges nothing", ok, body, size)
	}
	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); s.scannedPacks != 1 || st.DiskBlobs != 4 || st.PackTornBytes != 0 {
		t.Fatalf("open scanned %d packs, adopted %d blobs, %d torn bytes; want 1, 4, 0", s.scannedPacks, st.DiskBlobs, st.PackTornBytes)
	}
	for i, h := range hashes {
		if !s.Ref(h) || !bytes.Equal(get(t, s, h), datas[i]) {
			t.Fatalf("blob %d not served", i)
		}
	}
	if s.Ref(made.hash) {
		t.Fatal("the made-up hash was indexed")
	}
}

// TestFlippedPayloadFailsOnlyItsBlob: the open trusts a footered pack's
// footer and reads none of its records, so a bit flipped in one record's
// payload surfaces when that blob is read — as the "corrupted on disk" error
// every read's check gives — while the pack's other blobs are served.
func TestFlippedPayloadFailsOnlyItsBlob(t *testing.T) {
	full, _, datas, hashes := sealedPack(t, 3)
	var fr footerReader
	fr.read(bytes.NewReader(full), int64(len(full)))
	bad := fr.entries[1].meta(1)
	full[bad.off+bad.size/2] ^= 1
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pack-00000001.pk"), full, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); s.scannedPacks != 0 || st.DiskBlobs != 3 {
		t.Fatalf("open scanned %d packs and adopted %d blobs, want the footer's 3 unscanned", s.scannedPacks, st.DiskBlobs)
	}
	for i, h := range hashes {
		if !s.Ref(h) {
			t.Fatalf("blob %d not adopted", i)
		}
		c, err := s.Get(h)
		buf := make([]byte, len(datas[i]))
		_, rerr := s.ReadInto(h, buf)
		moved, terr := s.ReadForTransfer(h, make([]byte, len(datas[i])+RecordOverhead))
		if i == 1 {
			for _, err := range []error{err, rerr, terr} {
				if err == nil || !strings.Contains(err.Error(), "corrupted on disk") {
					t.Fatalf("the flipped blob read as %v", err)
				}
			}
			continue
		}
		if err != nil || rerr != nil || terr != nil || !bytes.Equal(c.Data(), datas[i]) || !bytes.Equal(buf, datas[i]) || !bytes.Equal(moved, datas[i]) {
			t.Fatalf("blob %d beside the flipped one: %v, %v, %v", i, err, rerr, terr)
		}
		c.ReleaseChunk()
	}
}

// footerFile is a pack of a body the decoder never reads, only its length,
// and the footer after it.
type footerFile struct {
	body   int64
	footer []byte
}

// footerOf is the pack of a bodyLen-byte body and the footer of entries,
// whose CRC matches: only the decoder's own checks can refuse it.
func footerOf(entries []footerEntry, bodyLen int64) footerFile {
	return footerFile{bodyLen, appendFooter(nil, entries, bodyLen)}
}

func (f footerFile) size() int64 { return f.body + int64(len(f.footer)) }

func (f footerFile) ReadAt(p []byte, off int64) (int, error) {
	if off < f.body || off+int64(len(p)) > f.size() {
		return 0, errors.New("read outside the footer")
	}
	return copy(p, f.footer[off-f.body:]), nil
}

// TestFooterRefusesWhatNoWriterWrites: a footer whose CRC and length agree
// with the file is still refused when its entries are not the records a
// writer appends: an offset outside the body, records that overlap or leave
// a gap, a length no record may have, a flag no writer sets, a logical length
// other than the data's. An entry flagged compressed is refused too, and
// reported as the retired form.
func TestFooterRefusesWhatNoWriterWrites(t *testing.T) {
	const rec = packRecHdrLen + packRecMeta
	e := func(off, size int64) footerEntry { return footerEntry{off: off, size: size} }
	good := []footerEntry{e(8, 100), e(8+rec+100, 20)}
	body := int64(8 + 2*rec + 120)
	var fr footerReader
	f := footerOf(good, body)
	if n, ok := fr.read(f, f.size()); !ok || n != body || !reflect.DeepEqual(fr.entries, good) {
		t.Fatalf("a well-formed footer: ok=%v body=%d entries %+v", ok, n, fr.entries)
	}
	huge := e(8, seglog.MaxRecordBytes+1)
	for name, c := range map[string]struct {
		entries []footerEntry
		body    int64
	}{
		"offset outside the body": {[]footerEntry{good[0], e(body+5, 20)}, body},
		"overlapping records":     {[]footerEntry{good[0], e(8+rec+50, 70)}, body},
		"a gap between records":   {[]footerEntry{good[0], e(8+rec+101, 19)}, body},
		"short of the body":       {good[:1], body},
		"before the magic":        {[]footerEntry{e(0, 100+8), good[1]}, body},
		"a length over the max":   {[]footerEntry{huge}, 8 + rec + huge.size},
	} {
		f := footerOf(c.entries, c.body)
		if _, ok := fr.read(f, f.size()); ok {
			t.Errorf("%s: accepted", name)
		}
	}
	// A flag or a logical length appendFooter never writes, under a CRC that
	// matches it.
	for name, c := range map[string]struct {
		at      int
		set     byte
		retired bool
	}{
		"an unknown flag":       {2*footerEntryLen - 1, 2, false},
		"a logical length":      {footerEntryLen + 44, 21, false},
		"the compressed flag":   {2*footerEntryLen - 1, packFlagCompressed, true},
		"the flag on the first": {footerEntryLen - 1, packFlagCompressed, true},
		"a flag bit beside it":  {footerEntryLen - 1, packFlagCompressed | 4, false},
	} {
		f = footerOf(good, body)
		f.footer[c.at] = c.set
		resealFooter(f.footer)
		if _, ok := fr.read(f, f.size()); ok || fr.retired != c.retired {
			t.Errorf("%s: accepted %v, retired %v", name, ok, fr.retired)
		}
	}
}

// resealFooter recomputes the CRC of a footer.
func resealFooter(footer []byte) {
	sumAt := len(footer) - footerTrailerLen + 12
	binary.LittleEndian.PutUint32(footer[sumAt:], crc32.ChecksumIEEE(footer[:sumAt]))
}

// FuzzPackFooterDecode holds the footer decoder — what an open trusts to
// index a pack without reading its records — to three properties on
// arbitrary bytes: it never panics; a footer it accepts lists records that
// tile the body, each of a length a record may have and none flagged, and
// re-encodes to exactly the bytes it was read from; and a footer it reports
// in the retired form is never accepted. Seeds are packs a store sealed, and
// the last of them with an entry in the retired form.
func FuzzPackFooterDecode(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(Config{Dir: dir, PackTargetBytes: 2 << 10})
	if err != nil {
		f.Fatal(err)
	}
	raw, _ := randomBlob(1, 2000)
	for _, data := range [][]byte{raw, raw[:600], bytes.Repeat([]byte("patch "), 700), []byte("a patch"), nil} {
		c := extent.WrapChunk(data, sha256.Sum256(data))
		if _, err := s.Put(c.Hash(), c); err != nil {
			f.Fatal(err)
		}
		c.ReleaseChunk()
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "pack-*.pk"))
	if err != nil || len(names) < 2 {
		f.Fatalf("packs %v (%v), want at least two", names, err)
	}
	var pack []byte
	for _, name := range names {
		if pack, err = os.ReadFile(name); err != nil {
			f.Fatal(err)
		}
		f.Add(pack)
	}
	var fr footerReader
	body, _ := fr.read(bytes.NewReader(pack), int64(len(pack)))
	retired := bytes.Clone(pack)
	retired[body+footerEntryLen-1] = packFlagCompressed
	resealFooter(retired[body:])
	f.Add(retired)
	f.Fuzz(func(t *testing.T, buf []byte) {
		var fr footerReader
		body, ok := fr.read(bytes.NewReader(buf), int64(len(buf)))
		if ok && fr.retired {
			t.Fatal("accepted a footer in the retired form")
		}
		if !ok {
			return
		}
		next := int64(len(packMagic))
		for i, e := range fr.entries {
			if e.off != next || e.size > seglog.MaxRecordBytes {
				t.Fatalf("accepted entry %+v where a record starts at %d", e, next)
			}
			if flags := buf[body+int64(i+1)*footerEntryLen-1]; flags != 0 {
				t.Fatalf("accepted entry %d with flags %#x", i, flags)
			}
			next += packRecHdrLen + packRecMeta + e.size
		}
		if next != body {
			t.Fatalf("accepted entries ending at %d, body %d", next, body)
		}
		if re := appendFooter(nil, fr.entries, body); !bytes.Equal(re, buf[body:]) {
			t.Fatalf("accepted footer\n%x\nre-encodes to\n%x", buf[body:], re)
		}
	})
}
