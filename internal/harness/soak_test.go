package harness

import (
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"datalinks/internal/archive"
)

// TestLostAcked: a file is lost when its bytes fall short of its last ack —
// behind it, or not a payload at all — in both modes; a file ahead of its
// ack is lost only where every commit must succeed (exact, E21), and legal
// where a commit can land without its ack (E20, E23).
func TestLostAcked(t *testing.T) {
	cases := []struct {
		name                   string
		content                []byte
		acked                  int64
		lostExact, lostAtLeast bool
	}{
		{"at its ack", seqPayload("/f", 4), 4, false, false},
		{"behind its ack", seqPayload("/f", 3), 4, true, true},
		{"ahead of its ack", seqPayload("/f", 5), 4, true, false},
		{"seed, nothing acked", seqPayload("/f", 0), 0, false, false},
		{"not a payload", []byte("junk that is no payload"), 0, true, true},
		{"empty", nil, 0, true, true},
		{"negative sequence", []byte("seq-00001 /f soak payload"), 0, true, true},
	}
	for _, tc := range cases {
		read := func(string) ([]byte, error) { return tc.content, nil }
		for _, exact := range []bool{true, false} {
			want := tc.lostAtLeast
			if exact {
				want = tc.lostExact
			}
			lost, err := lostAcked(read, []string{"/f"}, []int64{tc.acked}, exact)
			if err != nil || (lost == 1) != want {
				t.Errorf("%s, exact=%v: lost %d (%v), want lost=%v", tc.name, exact, lost, err, want)
			}
		}
	}

	// Every path is counted, and a file that cannot be read is an error
	// naming it.
	files := map[string][]byte{"/a": seqPayload("/a", 2), "/b": seqPayload("/b", 1), "/c": seqPayload("/c", 9)}
	read := func(p string) ([]byte, error) {
		if c, ok := files[p]; ok {
			return c, nil
		}
		return nil, errors.New("no such file")
	}
	if lost, err := lostAcked(read, []string{"/a", "/b", "/c"}, []int64{2, 2, 2}, false); lost != 1 || err != nil {
		t.Errorf("at-least over three files: lost %d (%v), want 1", lost, err)
	}
	if lost, err := lostAcked(read, []string{"/a", "/b", "/c"}, []int64{2, 2, 2}, true); lost != 2 || err != nil {
		t.Errorf("exact over three files: lost %d (%v), want 2", lost, err)
	}
	if _, err := lostAcked(read, []string{"/a", "/gone"}, []int64{0, 0}, false); err == nil || !strings.Contains(err.Error(), "/gone") {
		t.Errorf("an unreadable file: %v", err)
	}
}

// TestSeqPayloadRoundTrip: the sequence comes back from the bytes alone, and
// every payload of one path has one length, so a write at offset 0 replaces
// the file whole.
func TestSeqPayloadRoundTrip(t *testing.T) {
	for _, seq := range []int64{0, 1, 42, 999999, 1234567} {
		if got := payloadSeq(seqPayload("/z/f7.bin", seq)); got != seq {
			t.Errorf("payloadSeq(seqPayload(%d)) = %d", seq, got)
		}
	}
	if len(seqPayload("/p", 1)) != len(seqPayload("/p", 999999)) {
		t.Error("payload length depends on the sequence")
	}
}

// TestSameHistoriesCountsEveryMismatch: every pair that differs in bytes or
// could not be read counts, pairs that agree — state ids aside — do not, and
// the description is the first mismatch's, dumped version by version.
func TestSameHistoriesCountsEveryMismatch(t *testing.T) {
	v := func(version archive.Version, stateID uint64, content string) versionSum {
		return versionSum{version: version, stateID: stateID, size: len(content), sum: sha256.Sum256([]byte(content))}
	}
	h := history{v(0, 1, "v0"), v(1, 2, "v1")}
	other := history{h[0], v(1, 9, "x1")}
	restamped := history{h[0], h[1]}
	restamped[1].stateID = 7
	copyOf := func(label, path string, hh history, err error) heldCopy {
		return heldCopy{label: label, path: path, h: hh, err: err}
	}
	pairs := [][2]heldCopy{
		{copyOf("replica fs2", "/a", h, nil), copyOf("owner fs1", "/a", h, nil)},
		{copyOf("replica fs2", "/b", h, nil), copyOf("owner fs1", "/b", other, nil)},
		{copyOf("replica fs3", "/c", h, nil), copyOf("owner fs1", "/c", restamped, nil)},
		{copyOf("replica fs3", "/d", nil, errors.New("fs3: /d v0: blob gone")), copyOf("owner fs1", "/d", h, nil)},
		{copyOf("replica fs2", "/e", h, nil), copyOf("owner fs1", "/e", h[:1], nil)},
	}
	n, first := sameHistories(pairs)
	if n != 3 {
		t.Errorf("mismatched = %d, want 3 (/b, /d, /e)", n)
	}
	if !strings.HasPrefix(first, "/b: replica fs2 and owner fs1 hold different bytes") {
		t.Errorf("first mismatch is not /b's: %q", first)
	}
	if want := dump("replica fs2", h, "owner fs1", other); !strings.HasSuffix(first, want) {
		t.Errorf("first mismatch does not dump both copies: %q", first)
	}

	n, first = sameHistories(pairs[3:4])
	if n != 1 || first != "replica fs3: fs3: /d v0: blob gone" {
		t.Errorf("an unreadable copy: %d, %q", n, first)
	}
	if n, first = sameHistories(pairs[:1]); n != 0 || first != "" {
		t.Errorf("agreeing copies: %d, %q", n, first)
	}
}
