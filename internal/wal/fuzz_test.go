package wal

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzOpenScan: any bytes as the log's one segment never panic Open, and
// Scan then serves exactly the valid prefix the in-memory walk finds
// (validFrames), while the rest is quarantined.
func FuzzOpenScan(f *testing.F) {
	seed := seedSegment(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(append(append([]byte(nil), seed...), 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		valid, want := validFrames(data)
		dir := t.TempDir()
		if err := os.WriteFile(segments(dir).Path(1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if l.TailLSN() != LSN(len(want)) || l.TornBytes() != int64(len(data)-valid) {
			t.Fatalf("tail %d torn %d, want %d and %d", l.TailLSN(), l.TornBytes(), len(want), len(data)-valid)
		}
		if got := logRecords(t, l); !reflect.DeepEqual(got, want) {
			t.Fatalf("scan served %+v, want %+v", got, want)
		}
	})
}

// seedSegment is the segment file of a small log: records of every type, one
// without a payload.
func seedSegment(f *testing.F) []byte {
	dir := f.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i, typ := range []RecType{RecBegin, RecUpdate, RecCLR, RecPrepare, RecCommit, RecEnd} {
		var payload []byte
		if i > 0 {
			payload = bytes.Repeat([]byte{byte(i)}, 3*i)
		}
		if _, err := l.Append(Record{Type: typ, TxnID: 4, PrevLSN: LSN(i), UndoLSN: LSN(i / 2), Payload: payload}); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(segments(dir).Path(1))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
