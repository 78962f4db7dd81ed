package chunkdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzPackRecordDecode from records a store writes")

const packCorpusDir = "testdata/fuzz/FuzzPackRecordDecode"

// packCorpus is FuzzPackRecordDecode's seed corpus, by file name: records a
// store appended to a real pack — a chunk-sized blob, a patch-sized one, a
// small one — the three back to back, and refusals made from them: a torn
// record, a flipped data byte, a flags bit no writer sets under a checksum
// that matches it, and the retired compressed form earlier stores wrote. A
// "valid-" file is one record and parses; a "bad-" file does not; a
// "retired-" file is refused as the retired form.
func packCorpus(t *testing.T) map[string][]byte {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := blob(1, 600)
	patch := bytes.Repeat([]byte("patch "), 700)
	small := []byte("38 bytes a sub-chunk patch might hold")
	for _, data := range [][]byte{raw, patch, small} {
		put(t, s, data, sha256.Sum256(data))
	}
	s.Crash() // the pack gets no footer: it is records to the end
	pack, err := os.ReadFile(filepath.Join(dir, "pack-00000001.pk"))
	if err != nil {
		t.Fatal(err)
	}
	stream := pack[len(packMagic):]
	var recs [][]byte
	for rest := stream; len(rest) > 0; {
		n := recordLen(rest)
		recs = append(recs, rest[:n])
		rest = rest[n:]
	}
	if len(recs) != 3 {
		t.Fatalf("the store wrote %d records, want three", len(recs))
	}
	flipped := bytes.Clone(recs[0])
	flipped[len(flipped)-1] ^= 1
	unknownFlag := bytes.Clone(recs[2])
	unknownFlag[44] |= 2
	binary.LittleEndian.PutUint32(unknownFlag[8:12], recordCRC(unknownFlag))
	retired := bytes.Clone(recs[1])
	retire(retired)
	return map[string][]byte{
		"valid-raw":          recs[0],
		"valid-patch":        recs[1],
		"valid-small":        recs[2],
		"valid-stream":       stream,
		"bad-torn":           recs[0][:len(recs[0])-1],
		"bad-data-flip":      flipped,
		"bad-unknown-flag":   unknownFlag,
		"retired-compressed": retired,
	}
}

// TestPackCorpusIsRealRecords: every "valid-" seed is records the store
// wrote and parses — the first of them, for the stream — every "bad-" seed is
// refused, and every "retired-" seed is refused as the retired form.
// -update-corpus rewrites the seeds from a fresh store.
func TestPackCorpusIsRealRecords(t *testing.T) {
	seeds := packCorpus(t)
	if *updateCorpus {
		if err := os.RemoveAll(packCorpusDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(packCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range seeds {
			file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
			if err := os.WriteFile(filepath.Join(packCorpusDir, name), []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(packCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(seeds) {
		t.Fatalf("corpus has %d files, want %d", len(entries), len(seeds))
	}
	for _, e := range entries {
		file, err := os.ReadFile(filepath.Join(packCorpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(file), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a fuzz corpus file", e.Name())
		}
		var quoted string
		if _, err := fmt.Sscanf(strings.TrimSuffix(body, ")\n"), "%q", &quoted); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		_, _, _, ok, retired := parseRecord([]byte(quoted))
		if want := strings.HasPrefix(e.Name(), "valid-"); ok != want {
			t.Errorf("%s: parsed = %v, want %v", e.Name(), ok, want)
		}
		if want := strings.HasPrefix(e.Name(), "retired-"); retired != want {
			t.Errorf("%s: retired = %v, want %v", e.Name(), retired, want)
		}
	}
}

// FuzzPackRecordDecode holds the pack record parser — what a pack scan at
// open trusts to rebuild the index — to three properties on arbitrary bytes:
// it never panics; a record it accepts is exactly the bytes putRecordHeader
// and the record's data write, flags 0, with recordLen agreeing on where it
// ends; and a record in the retired compressed form is never accepted.
func FuzzPackRecordDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		h, data, n, ok, retired := parseRecord(buf)
		if ok && retired {
			t.Fatal("accepted a record in the retired form")
		}
		if !ok {
			return
		}
		if n > len(buf) || recordLen(buf) != int64(n) {
			t.Fatalf("accepted a %d-byte record out of %d bytes (recordLen %d)", n, len(buf), recordLen(buf))
		}
		if buf[44] != 0 {
			t.Fatalf("accepted a record flagged %#x", buf[44])
		}
		var hdr [packRecHdrLen + packRecMeta]byte
		putRecordHeader(&hdr, h, data)
		if re := append(hdr[:], data...); !bytes.Equal(re, buf[:n]) {
			t.Fatalf("accepted record\n%x\nre-encodes to\n%x", buf[:n], re)
		}
	})
}
