package catalog

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeeds are the record shapes the archive writes — a full manifest, a
// delta, a tail-only file, an empty file — plus one truncate and one drop.
func fuzzSeeds() [][]byte {
	const key = "fs1\x00/d/f.bin"
	full := putRec(key, 0, true)
	delta := putRec(key, 1, false)
	tailOnly := &PutRec{Key: key, Version: 2, StateID: 9, Size: 7, StoredUnixNano: -5, TailLen: 7, TailHash: hashOf(3), IsFull: true}
	empty := &PutRec{Key: key, Version: 3, StateID: 10, IsFull: true}
	return [][]byte{
		encodePut(7, full), encodePut(8, delta), encodePut(9, tailOnly), encodePut(0, empty),
		encodeKeyRecord(kindTruncate, 10, key, 2, true),
		encodeKeyRecord(kindDrop, 11, key, 0, false),
	}
}

// FuzzPutRecDecode holds the record decoder to four properties on arbitrary
// payloads: it never panics; a put it accepts re-encodes to the very bytes it
// was decoded from; nothing it allocates is sized by a count the payload
// cannot back; and two records decoded back to back from one arena share no
// memory — not even through an append.
func FuzzPutRecDecode(f *testing.F) {
	for _, p := range fuzzSeeds() {
		// Every prefix covers every field boundary.
		for cut := 0; cut <= len(p); cut++ {
			f.Add(p[:cut])
		}
	}
	// Counts no payload of this size can back, and a varint of all ones.
	head := encodePut(1, &PutRec{Key: "k", NChunks: 1 << 20})
	head = head[:len(head)-2] // cut before the form byte
	for _, form := range []byte{0, 1} {
		f.Add(binary.AppendUvarint(append(bytes.Clone(head), form), 1<<40))
		f.Add(binary.AppendUvarint(append(bytes.Clone(head), form), 1<<20))
		f.Add(append(append(bytes.Clone(head), form), bytes.Repeat([]byte{0xff}, 10)...))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		c := &Catalog{files: make(map[string]*history)}
		var err error
		grew, _ := allocated(func() { err = c.apply(payload) })
		// One block of each kind, a history and its key, and slack for the
		// runtime's own bookkeeping: nothing that grows with a claimed count.
		if budget := int64(256<<10 + 4*len(payload)); !raceEnabled && grew > budget {
			t.Fatalf("decoding %d bytes allocated %d B (budget %d)", len(payload), grew, budget)
		}
		if err != nil || len(c.files) == 0 {
			return // refused, or a truncate/drop of nothing
		}
		var r *PutRec
		for _, h := range c.files {
			r = h.puts[0]
		}
		seq, _ := binary.Uvarint(payload)
		if re := encodePut(seq, r); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload\n%x\nre-encodes to\n%x", payload, re)
		}

		// The same record again under another key, decoded out of the arena
		// the first one came from; then scribble over the first.
		twin := *r
		twin.Key += "'"
		payload2 := encodePut(seq, &twin)
		if err := c.apply(payload2); err != nil {
			t.Fatalf("re-keyed copy of an accepted record refused: %v", err)
		}
		r2 := c.files[twin.Key].puts[0]
		for i := range r.Full {
			r.Full[i] = hashOf(0xee)
		}
		for i := range r.Mods {
			r.Mods[i] = Mod{Idx: -1, Hash: hashOf(0xee)}
		}
		_ = append(r.Full, hashOf(0xee))
		_ = append(r.Mods, Mod{Idx: -1, Hash: hashOf(0xee)})
		if re := encodePut(seq, r2); !bytes.Equal(re, payload2) {
			t.Fatalf("writing to one record's lists changed its neighbour:\n%x\nwas\n%x", re, payload2)
		}
	})
}
