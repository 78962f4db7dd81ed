package upcall

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"datalinks/internal/obs"
	"datalinks/internal/retry"
)

// otherVersionFrame is a well-framed payload whose first byte is not
// wireVersion — what a peer at another wire version sends, and what the gob
// envelope this layout replaced looks like (a gob stream opens with the
// length of a type definition, never 0x01).
func otherVersionFrame() []byte {
	payload := []byte{wireVersion + 1, 0, 4}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// Version skew is an explicit, typed refusal on the first frame, at both
// ends: the decode fails with ErrWireVersion, the connection is retired, and
// the client treats the fault as permanent — one attempt, no retry budget
// burnt, no breaker trip. Zero TraceID/SpanID still means "untraced".
func TestEnvelopeVersionSkew(t *testing.T) {
	var out envelope
	err := readFrame(bytes.NewReader(otherVersionFrame()), DefaultMaxFrame, &out)
	if !errors.Is(err, ErrWireVersion) || !errors.Is(err, ErrTransport) {
		t.Fatalf("decode of another version's frame: %v, want ErrWireVersion wrapping ErrTransport", err)
	}
	if defaultClassify(err) != retry.Permanent || defaultClassify(connLost(err)) != retry.Permanent {
		t.Fatal("a wire version mismatch must classify as permanent, however it is wrapped")
	}

	// Client side: the peer answers every request in another version.
	answer := func(conn net.Conn) {
		var e envelope
		if readFrame(bufio.NewReader(conn), DefaultMaxFrame, &e) == nil {
			conn.Write(otherVersionFrame())
		}
	}
	cfg := fastClient()
	cfg.DisableBreaker = false
	cfg.Breaker = &retry.BreakerConfig{Threshold: 1}
	client, err := DialConfig(rawServer(t, answer, answer), cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	if _, err := client.Upcall(Request{Op: OpClose, Path: "/f"}); !errors.Is(err, ErrWireVersion) || !errors.Is(err, ErrTransport) {
		t.Fatalf("upcall to a mismatched peer: %v, want ErrWireVersion", err)
	}
	m := client.Metrics()
	for name, want := range map[string]int64{"upcall.conns_dialed": 1, "upcall.conns_retired": 1,
		"upcall.retries": 0, "upcall.giveups": 0, "upcall.breaker_open": 0} {
		if got := m.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// Server side: a request in another version is answered in this one (so
	// the sender's own version check is what fails its call) and hung up on.
	srv, addr, err := Serve(noopService{}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write(otherVersionFrame())
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	if err := readFrame(r, DefaultMaxFrame, &out); err != nil || !strings.Contains(out.Err, ErrWireVersion.Error()) {
		t.Fatalf("server's answer to another version: %+v, %v", out, err)
	}
	if _, err := r.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("server kept a mismatched connection open: %v", err)
	}

	// An untraced frame carries zeros and decodes to zeros.
	var buf bytes.Buffer
	if err := writeFrame(&buf, DefaultMaxFrame, &envelope{Seq: 4, Resp: Response{OK: true, OpenID: 12}}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if err := readFrame(&buf, DefaultMaxFrame, &out); err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if out.Seq != 4 || !out.Resp.OK || out.Resp.OpenID != 12 || out.TraceID != 0 || out.SpanID != 0 {
		t.Fatalf("untraced frame decoded as %+v", out)
	}
}

// A dropped-then-retried upcall must yield ONE trace with two wire-attempt
// child spans — not two traces. The first attempt's reply is swallowed (the
// handler reads the frame and goes silent until the attempt deadline); the
// retry lands on a fresh connection and succeeds.
func TestRetriedUpcallIsOneTraceWithTwoWireAttempts(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := rawServer(t,
		func(conn net.Conn) {
			var e envelope
			readFrame(bufio.NewReader(conn), DefaultMaxFrame, &e)
			<-block // reply never comes; the client's attempt deadline fires
		},
		echoFrames(Response{OK: true}),
	)
	cfg := fastClient()
	cfg.AttemptTimeout = 100 * time.Millisecond
	client, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	tracer := obs.New(obs.Config{})
	tr := tracer.Start("commit")
	ctx := obs.ContextWithSpan(t.Context(), tr.Root())
	resp, err := client.UpcallCtx(ctx, Request{Op: OpClose, Path: "/f"})
	if err != nil || !resp.OK {
		t.Fatalf("upcall after retry: %+v, %v", resp, err)
	}
	tr.Finish()

	traces := tracer.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("retried op produced %d traces, want 1", len(traces))
	}
	assertTwoWireAttempts(t, traces[0])
}

// The same invariant must hold when the retry crosses a circuit-breaker
// half-open probe: first attempt fails, the breaker opens, the backoff
// outlives the cooldown, and the probe attempt is still a wire span of the
// SAME trace.
func TestRetryAcrossBreakerProbeStaysOneTrace(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := rawServer(t,
		func(conn net.Conn) {
			var e envelope
			readFrame(bufio.NewReader(conn), DefaultMaxFrame, &e)
			<-block
		},
		echoFrames(Response{OK: true}),
	)
	cfg := ClientConfig{
		PoolSize:       1,
		DialTimeout:    time.Second,
		AttemptTimeout: 50 * time.Millisecond,
		// Backoff (fixed 30ms, identity jitter) outlives the breaker
		// cooldown (5ms): attempt 1 opens the circuit, attempt 2 is the
		// half-open probe.
		Retry:   retry.Policy{MaxAttempts: 4, BaseDelay: 30 * time.Millisecond, MaxDelay: 30 * time.Millisecond, Jitter: func(d time.Duration) time.Duration { return d }},
		Breaker: &retry.BreakerConfig{Threshold: 1, Cooldown: 5 * time.Millisecond},
	}
	client, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	tracer := obs.New(obs.Config{})
	tr := tracer.Start("commit")
	ctx := obs.ContextWithSpan(t.Context(), tr.Root())
	resp, err := client.UpcallCtx(ctx, Request{Op: OpClose, Path: "/f"})
	if err != nil || !resp.OK {
		t.Fatalf("upcall across breaker probe: %+v, %v", resp, err)
	}
	tr.Finish()

	traces := tracer.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("probe retry produced %d traces, want 1", len(traces))
	}
	assertTwoWireAttempts(t, traces[0])
}

func assertTwoWireAttempts(t *testing.T, tr *obs.Trace) {
	t.Helper()
	wires := tr.Root().FindAll("wire")
	if len(wires) != 2 {
		t.Fatalf("trace has %d wire spans, want 2", len(wires))
	}
	for i, w := range wires {
		got, ok := w.Attr("attempt")
		if !ok || got.(int) != i+1 {
			t.Fatalf("wire span %d: attempt attr = %v, %v", i, got, ok)
		}
	}
	if _, ok := wires[0].Attr("error"); !ok {
		t.Fatal("first (dropped) wire attempt has no error attr")
	}
	if _, ok := wires[1].Attr("error"); ok {
		t.Fatal("successful wire attempt should not carry an error attr")
	}
}

// Over real TCP with client and server sharing a process (the loopback
// deployment every experiment uses), the server's span must stitch into the
// client's live trace under the wire span that carried the request.
func TestServerAdoptionStitchesOverTCP(t *testing.T) {
	tracer := obs.New(obs.Config{})
	svc := &echoService{resp: Response{OK: true}}
	server, addr, err := ServeConfig(svc, "127.0.0.1:0", ServerConfig{Tracer: tracer})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer server.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	tr := tracer.Start("commit")
	ctx := obs.ContextWithSpan(t.Context(), tr.Root())
	if _, err := client.UpcallCtx(ctx, Request{Op: OpWriteOpen, Path: "/f"}); err != nil {
		t.Fatalf("upcall: %v", err)
	}
	tr.Finish()

	wire := tr.Root().Find("wire")
	if wire == nil {
		t.Fatal("no wire span")
	}
	srv := wire.Find("server")
	if srv == nil || srv == wire {
		t.Fatalf("server span not stitched under wire span (children: %d)", len(wire.Children()))
	}
	if op, _ := srv.Attr("op"); op != OpWriteOpen.String() {
		t.Fatalf("server span op attr = %v", op)
	}
	if len(tracer.Recent(0)) != 1 {
		t.Fatalf("stitched op recorded %d traces, want 1", len(tracer.Recent(0)))
	}
}

// Chaos delay injected on the connection must be attributed to the wire
// span that suffered it via the chaos_delay_ms attr.
func TestChaosDelayAttributedToWireSpan(t *testing.T) {
	svc := &echoService{resp: Response{OK: true}}
	server, addr, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer server.Close()
	ch := &Chaos{Seed: 1, DelayDist: Delay{Prob: 1, Min: 5 * time.Millisecond, Max: 6 * time.Millisecond}}
	client, err := DialConfig(addr, ClientConfig{Chaos: ch, DisableBreaker: true})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	tracer := obs.New(obs.Config{})
	tr := tracer.Start("commit")
	ctx := obs.ContextWithSpan(t.Context(), tr.Root())
	if _, err := client.UpcallCtx(ctx, Request{Op: OpClose}); err != nil {
		t.Fatalf("upcall: %v", err)
	}
	tr.Finish()

	wire := tr.Root().Find("wire")
	if wire == nil {
		t.Fatal("no wire span")
	}
	v, ok := wire.Attr("chaos_delay_ms")
	if !ok {
		t.Fatal("wire span has no chaos_delay_ms attr")
	}
	if ms := v.(float64); ms < 5 {
		t.Fatalf("chaos_delay_ms = %v, want >= 5 (write + read delays)", ms)
	}
}
