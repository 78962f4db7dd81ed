package upcall

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzEnvelopeDecode from corpusFrames (only with a wireVersion bump)")

const corpusDir = "testdata/fuzz/FuzzEnvelopeDecode"

type noopService struct{}

func (noopService) Upcall(Request) (Response, error) { return Response{OK: true}, nil }

// tokenRequest is the hot path's biggest frame: a validate-token request.
func tokenRequest() envelope {
	return envelope{Seq: 7, Req: Request{Op: OpValidateToken, Path: "/data/f0042.bin",
		Token: "r:1700000300:0123456789abcdef0123456789abcdef", UID: 1001}}
}

// corpusFrames is the seed corpus, by file name: one request and one response
// per Op, a traced frame, a service-error frame, a backpressure frame, and
// truncations of the token request. Frames, not bare payloads — the length
// prefix is fuzzed too.
func corpusFrames(t testing.TB) map[string][]byte {
	frame := func(e envelope) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, DefaultMaxFrame, &e); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		return buf.Bytes()
	}
	out := make(map[string][]byte)
	for _, op := range Ops() {
		out["req-"+op.String()] = frame(envelope{Seq: uint64(op), Req: Request{Op: op, Path: "/d/a.bin", NewPath: "/d/b.bin",
			Token: "w:1700000300:00112233445566778899aabbccddeeff", UID: -2, Write: true, OpenID: 1 << 40, Size: 4096, Mtime: -1, Strict: true}})
		out["resp-"+op.String()] = frame(envelope{Seq: uint64(op), Resp: Response{OK: op%2 == 0, Err: "no valid read token entry for /d/a.bin",
			Code: CodePermission, OpenID: uint64(op) << 33, TakeOver: op%2 == 1}})
	}
	traced := tokenRequest()
	traced.TraceID, traced.SpanID = 0xfeedfacecafebeef, 0xffffffff
	out["traced"] = frame(traced)
	out["error"] = frame(envelope{Seq: 9, Err: "dlfm: repository closed"})
	out["overloaded"] = frame(envelope{Seq: 10, Err: ErrOverloaded.Error(), Retryable: true})
	whole := frame(tokenRequest())
	for _, n := range []int{0, 3, 4, 5, 6, len(whole) / 2, len(whole) - 1} {
		out[fmt.Sprintf("trunc-%d", n)] = whole[:n]
	}
	return out
}

func corpusFile(frame []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame))
}

// The checked-in corpus is also the layout's golden file: if the bytes the
// codec produces change, either the change is a mistake or wireVersion must
// be bumped and the corpus regenerated with -update-corpus.
func TestSeedCorpusMatchesCodec(t *testing.T) {
	frames := corpusFrames(t)
	if *updateCorpus {
		if err := os.RemoveAll(corpusDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range frames {
			if err := os.WriteFile(filepath.Join(corpusDir, name), corpusFile(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < len(frames) {
		t.Errorf("corpus has %d files, codec samples %d", len(entries), len(frames))
	}
	for name, b := range frames {
		got, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Errorf("%v", err)
		} else if !bytes.Equal(got, corpusFile(b)) {
			t.Errorf("%s: the codec no longer produces the checked-in bytes — the layout changed without a wireVersion bump", name)
		}
	}
}

// Decode never panics, never hands back more string bytes than the frame it
// was given, and every envelope it accepts survives encode → decode intact.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		var e envelope
		// maxFrame = what we hand it: the payload buffer cannot exceed it.
		if err := readFrame(bytes.NewReader(frame), len(frame), &e); err != nil {
			return
		}
		if n := len(e.Req.Path) + len(e.Req.NewPath) + len(e.Req.Token) + len(e.Resp.Err) + len(e.Err); n > len(frame) {
			t.Fatalf("decoded %d string bytes out of a %d-byte frame", n, len(frame))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, DefaultMaxFrame, &e); err != nil {
			t.Fatalf("re-encode of an accepted envelope: %v", err)
		}
		var again envelope
		if err := readFrame(&buf, DefaultMaxFrame, &again); err != nil || again != e {
			t.Fatalf("round trip: %+v -> %+v, %v", e, again, err)
		}
	})
}

func TestEnvelopeRoundTripAndRejects(t *testing.T) {
	for name, frame := range corpusFrames(t) {
		var e envelope
		err := readFrame(bytes.NewReader(frame), DefaultMaxFrame, &e)
		if truncated := strings.HasPrefix(name, "trunc-"); truncated == (err == nil) {
			t.Errorf("%s: decode error = %v", name, err)
		}
	}
	whole := corpusFrames(t)["traced"]
	payload := append([]byte(nil), whole[4:]...)
	var e envelope
	if err := decodeEnvelope(payload, &e); err != nil || e.TraceID != 0xfeedfacecafebeef || e.SpanID != 0xffffffff || e.Req.Token != tokenRequest().Req.Token {
		t.Fatalf("traced frame decoded as %+v, %v", e, err)
	}
	if err := decodeEnvelope(append(payload, 0), &e); err == nil {
		t.Error("trailing byte accepted")
	}
	payload[1] |= 0x80
	if err := decodeEnvelope(payload, &e); err == nil {
		t.Error("unknown flag bit accepted")
	}
	// A string length beyond the frame must fail before it is allocated.
	huge := appendEnvelope(nil, &envelope{})
	huge = append(huge[:len(huge)-1], 0xff, 0xff, 0xff, 0xff, 0x0f) // Err: 4 GiB, no bytes
	if err := decodeEnvelope(huge, &e); err == nil {
		t.Error("string longer than the frame accepted")
	}
}

// Allocation budgets (ISSUE 16): the steady state stages frames in pooled
// buffers, so a write allocates nothing and a read only the strings it
// returns; a whole upcall over loopback, both ends, stays under 40 mallocs
// (the gob envelope cost ~574).
func TestFrameAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	req := tokenRequest()
	if n := testing.AllocsPerRun(200, func() {
		if err := writeFrame(io.Discard, DefaultMaxFrame, &req); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("writeFrame: %.0f mallocs per frame, budget 0", n)
	}
	var wire bytes.Buffer
	writeFrame(&wire, DefaultMaxFrame, &req)
	r := bytes.NewReader(nil)
	var out envelope
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(wire.Bytes())
		if err := readFrame(r, DefaultMaxFrame, &out); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("readFrame: %.0f mallocs per token-carrying request, budget 5", n)
	}
	if out != req {
		t.Fatalf("read back %+v", out)
	}
}

func TestUpcallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, addr, err := Serve(noopService{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialConfig(addr, ClientConfig{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	req := tokenRequest().Req
	// AllocsPerRun reads the process-wide malloc count, so this is the
	// client and the server's connection and handler goroutines together.
	if n := testing.AllocsPerRun(500, func() {
		if resp, err := client.Upcall(req); err != nil || !resp.OK {
			t.Fatalf("upcall: %+v, %v", resp, err)
		}
	}); n > 5 {
		t.Errorf("Client.Upcall over loopback: %.0f mallocs per call, budget 5", n)
	} else {
		t.Logf("Client.Upcall over loopback: %.0f mallocs per call", n)
	}
}
