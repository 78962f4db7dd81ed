package sqlmini

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"datalinks/internal/datalink"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzLogPayloadDecode from corpusPayloads (only with a payloadVersion bump)")

const payloadCorpusDir = "testdata/fuzz/FuzzLogPayloadDecode"

// encodePayload is appendPayload into a buffer of exactly the payload's
// size.
func encodePayload(p logPayload) []byte {
	return appendPayload(make([]byte, 0, payloadLen(p)), p)
}

// updatePayload is the commit path's commonest record: a three-column UPDATE.
func updatePayload() logPayload {
	return logPayload{Op: opUpdate, Table: "t", Row: 7,
		Before: Row{Int(7), Str("before"), Int(41)},
		After:  Row{Int(7), Str("after!"), Int(42)}}
}

// corpusPayloads is the seed corpus, by file name: one payload per op, one
// per value Kind, and the hostile length claims. Every whole payload in it
// is also cut at every byte by the tests below.
func corpusPayloads() (whole map[string]logPayload, hostile map[string][]byte) {
	cols := []Column{
		{Name: "id", Kind: KindInt, PrimaryKey: true, NotNull: true},
		{Name: "doc", Kind: KindLink, DL: datalink.ColumnOptions{Mode: datalink.RDD, Recovery: true, TokenTTLSecs: 300}},
		{Name: "note", Kind: KindString},
	}
	row := Row{Int(1), Link(datalink.Link{Server: "fs1", Path: "/d/a.bin"}), Null()}
	whole = map[string]logPayload{
		"op-insert":       {Op: opInsert, Table: "files", Row: 1, After: row},
		"op-delete":       {Op: opDelete, Table: "files", Row: 1, Before: row},
		"op-update":       updatePayload(),
		"op-create-table": {Op: opCreateTable, Table: "files", Cols: cols},
		"op-drop-table":   {Op: opDropTable, Table: "files", Cols: cols},
		"op-create-index": {Op: opCreateIndex, Table: "files", Col: "note"},
		"op-drop-index":   {Op: opDropIndex, Table: "files", Col: "note"},
		// A prepare record's note: a host transaction id and one side effect.
		"op-prepare": {Op: opPrepare, After: Row{Int(1 << 40), Str("link"), Str("/d/a.bin"), Int(100), Int(0o644), Bool(true)}},
	}
	for name, v := range map[string]Value{
		"null": Null(), "int": Int(-1 << 62), "float": Float(-2.5), "string": Str("héllo"), "bool": Bool(true),
		"time": Time(time.Date(2001, 4, 2, 9, 30, 0, 123456789, time.UTC)),
		"link": Link(datalink.Link{Server: "fs2", Path: "/x"}),
	} {
		whole["kind-"+name] = logPayload{Op: opInsert, Table: "k", Row: 1 << 40, After: Row{v}}
	}
	head := []byte{payloadMagic, payloadVersion, byte(opInsert)}
	hostile = map[string][]byte{
		// A table name that claims 2^62 bytes, and a row that claims 2^62 values.
		"claim-string-2e62": binary.AppendUvarint(append([]byte(nil), head...), 1<<62),
		"claim-row-2e62":    binary.AppendUvarint(append(append([]byte(nil), head...), 1, 't', 1), 1<<62),
		// Ten continuation bytes: a varint that overflows 64 bits.
		"varint-all-ones": append(append([]byte(nil), head...), bytes.Repeat([]byte{0xff}, 10)...),
	}
	return whole, hostile
}

func corpusFile(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}

// The checked-in corpus is also the layout's golden file: if the bytes the
// codec produces change, either the change is a mistake or payloadVersion
// must be bumped (keeping a decoder for version 1) and the corpus regenerated
// with -update-corpus.
func TestPayloadCorpusMatchesCodec(t *testing.T) {
	whole, files := corpusPayloads()
	for name, p := range whole {
		files[name] = encodePayload(p)
	}
	if *updateCorpus {
		if err := os.RemoveAll(payloadCorpusDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(payloadCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(payloadCorpusDir, name), corpusFile(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, b := range files {
		got, err := os.ReadFile(filepath.Join(payloadCorpusDir, name))
		if err != nil {
			t.Errorf("%v", err)
		} else if !bytes.Equal(got, corpusFile(b)) {
			t.Errorf("%s: the codec no longer produces the checked-in bytes — the layout changed without a payloadVersion bump", name)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	whole, _ := corpusPayloads()
	for name, p := range whole {
		b := encodePayload(p)
		got, err := decodePayload(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("%s: decoded as %+v, want %+v", name, got, p)
		}
		// Cut anywhere, a payload is refused with the typed error.
		for n := 1; n < len(b); n++ {
			if _, err := decodePayload(b[:n]); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s cut to %d of %d bytes: err = %v, want ErrBadPayload", name, n, len(b), err)
			}
		}
		if _, err := decodePayload(append(b[:len(b):len(b)], 0)); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: a trailing byte was accepted (%v)", name, err)
		}
	}
}

// decodeBudget is how much the decoder may allocate per input byte: a value
// is at least one byte on disk and one Value in memory.
const decodeBudget = int(unsafe.Sizeof(Value{})) + 8

func TestPayloadDecodeRefusesHostileClaims(t *testing.T) {
	_, hostile := corpusPayloads()
	for name, mutate := range map[string]func([]byte) []byte{
		"wrong magic":        func(b []byte) []byte { b[0] = 3; return b },
		"unknown version":    func(b []byte) []byte { b[1] = 9; return b },
		"unknown op":         func(b []byte) []byte { b[2] = 99; return b },
		"unknown kind":       func(b []byte) []byte { b[7] = byte(KindLink) + 1; return b },
		"non-minimal varint": func(b []byte) []byte { return append(b[:5:5], append([]byte{0x87, 0x00}, b[6:]...)...) },
	} {
		hostile[name] = mutate(encodePayload(updatePayload()))
	}
	for name, b := range hostile {
		// The least of three readings: TotalAlloc is the whole process's.
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodePayload(b)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s: err = %v, want ErrBadPayload", name, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		// The error value itself is a few hundred bytes; a claim-sized
		// buffer would be exabytes.
		if !raceEnabled && least > uint64(len(b)*decodeBudget+1024) {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(b), least)
		}
	}
}

// What a payload costs on the commit path and at recovery (parent: 33 mallocs
// and 540 B to encode this one, 345 mallocs to decode it).
func TestPayloadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p := updatePayload()
	var b []byte
	if n := testing.AllocsPerRun(100, func() { b = encodePayload(p) }); n != 1 {
		t.Errorf("encoding a 3-column update: %.0f mallocs, want 1", n)
	}
	if len(b) != cap(b) || cap(b) > 64 {
		t.Errorf("encoded update is %d bytes in a %d-byte buffer, want an exact fit of at most 64", len(b), cap(b))
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodePayload(b); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("decoding a 3-column update: %.0f mallocs, want <= 8", n)
	}
}

// Decode never panics, holds what it builds to a constant times the input,
// and every payload it accepts is the one encoding of what it decoded to.
func FuzzLogPayloadDecode(f *testing.F) {
	whole, _ := corpusPayloads()
	for _, p := range whole {
		b := encodePayload(p)
		for n := 0; n < len(b); n++ {
			f.Add(b[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodePayload(b)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		held := (len(p.Before)+len(p.After))*int(unsafe.Sizeof(Value{})) + len(p.Cols)*int(unsafe.Sizeof(Column{}))
		if held > len(b)*decodeBudget {
			t.Fatalf("%d input bytes decoded into %d bytes of rows and columns", len(b), held)
		}
		again := encodePayload(p)
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-encodes as %x", b, again)
		}
		// Compared as bytes, so that a NaN equals itself.
		back, err := decodePayload(again)
		if err != nil || !bytes.Equal(encodePayload(back), again) {
			t.Fatalf("decode(encode(p)) = %+v, %v; want %+v", back, err, p)
		}
	})
}
