package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"datalinks/internal/metrics"
)

func TestNilTracerIsFullyInert(t *testing.T) {
	var tracer *Tracer
	tr := tracer.Start("open")
	if tr != nil {
		t.Fatal("nil tracer produced a trace")
	}
	sp := tr.Root().Child("x")
	sp.SetInt("k", 1)
	sp.End()
	tr.Finish()
	if got := tracer.Recent(10); got != nil {
		t.Fatalf("recent = %v", got)
	}
	sp2, done := tracer.Adopt(WireContext{Trace: 7}, "server")
	if sp2 != nil {
		t.Fatal("nil tracer adopted a span")
	}
	done()
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFrom(ctx) != nil {
		t.Fatal("nil span round-tripped through context")
	}
}

// An untraced path annotates nil spans, and the typed setters test the span
// before they box a value: they cost nothing there. A traced span keeps
// every value with its type.
func TestUntracedSettersAllocateNothing(t *testing.T) {
	str, i, f := strings.Repeat("p", 40), int64(1<<40), 2.5
	set := func(sp *Span) {
		sp.SetString("s", str)
		sp.SetInt("i", i)
		sp.SetBool("b", true)
		sp.SetFloat("f", f)
	}
	tr := New(Config{}).Start("op")
	set(tr.Root())
	tr.Finish()
	for key, want := range map[string]any{"s": str, "i": i, "b": true, "f": f} {
		if v, ok := tr.Root().Attr(key); !ok || v != want {
			t.Errorf("traced %s = %v (%T), want %v (%T)", key, v, v, want, want)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var untraced *Span
	if n := testing.AllocsPerRun(200, func() { set(untraced) }); n != 0 {
		t.Fatalf("typed setters on a nil span: %.1f mallocs, want 0", n)
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tracer := New(Config{})
	tr := tracer.Start("commit")
	wire := tr.Root().Child("wire")
	wire.SetInt("attempt", 1)
	lock := wire.Child("lock")
	lock.End()
	wire.End()
	tr.Finish()

	if tr.Root().Find("lock") == nil {
		t.Fatal("nested span not findable")
	}
	if v, ok := wire.Attr("attempt"); !ok || v != int64(1) {
		t.Fatalf("attr = %v %v", v, ok)
	}
	recent := tracer.Recent(10)
	if len(recent) != 1 || recent[0].Op() != "commit" {
		t.Fatalf("recent = %v", recent)
	}
	j := tr.JSON()
	if j.Op != "commit" || len(j.Root.Children) != 1 || j.Root.Children[0].Name != "wire" {
		t.Fatalf("json = %+v", j)
	}
	if j.Root.Children[0].Attrs["attempt"] != int64(1) {
		t.Fatalf("json attrs = %+v", j.Root.Children[0].Attrs)
	}
}

func TestAdoptStitchesIntoPendingTrace(t *testing.T) {
	tracer := New(Config{})
	tr := tracer.Start("commit")
	wire := tr.Root().Child("wire")
	sp, done := tracer.Adopt(wire.Wire(), "server")
	if sp == nil {
		t.Fatal("no adopted span")
	}
	sp.Child("lock").End()
	done()
	wire.End()
	tr.Finish()

	// One trace, with the server spans hanging under the client's wire span.
	if len(tracer.Recent(10)) != 1 {
		t.Fatalf("want one trace, got %d", len(tracer.Recent(10)))
	}
	srv := wire.Find("server")
	if srv == nil || srv.Find("lock") == nil {
		t.Fatal("server spans not stitched under the wire span")
	}
}

func TestAdoptUnknownTraceRecordsStandalone(t *testing.T) {
	tracer := New(Config{})
	sp, done := tracer.Adopt(WireContext{Trace: 424242, Span: 1}, "server")
	sp.Child("lock").End()
	done()
	recent := tracer.Recent(10)
	if len(recent) != 1 || recent[0].ID() != 424242 {
		t.Fatalf("recent = %v", recent)
	}
	if v, ok := recent[0].Root().Attr("remote"); !ok || v != true {
		t.Fatal("standalone trace not marked remote")
	}
}

func TestRingIsBoundedAndSlowestRetained(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	tracer := New(Config{Capacity: 16, Slowest: 4, Clock: clock})
	for i := 0; i < 200; i++ {
		tr := tracer.Start("op")
		// Trace i runs for i microseconds.
		now = now.Add(time.Duration(i) * time.Microsecond)
		tr.Finish()
		now = now.Add(time.Microsecond)
	}
	if got := len(tracer.Recent(0)); got > 16 {
		t.Fatalf("ring retained %d traces, capacity 16", got)
	}
	slow := tracer.Slowest(0)
	if len(slow) != 4 {
		t.Fatalf("slowest list = %d", len(slow))
	}
	if slow[0].Duration() != 199*time.Microsecond || slow[3].Duration() != 196*time.Microsecond {
		t.Fatalf("slowest durations = %v %v", slow[0].Duration(), slow[3].Duration())
	}
}

func TestSlowOpLogEmitsOneLineJSON(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	log := NewLogger(&buf, LevelInfo)
	log.clock = clock
	tracer := New(Config{SlowOpThreshold: time.Millisecond, Log: log, Clock: clock})

	fast := tracer.Start("open")
	fast.Finish() // zero duration: below threshold
	slow := tracer.Start("commit")
	w := slow.Root().Child("wire")
	now = now.Add(5 * time.Millisecond)
	w.End()
	slow.Finish()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 slow_op line, got %d: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("slow_op line is not JSON: %v", err)
	}
	if ev["event"] != "slow_op" || ev["level"] != "warn" || ev["op"] != "commit" {
		t.Fatalf("event = %v", ev)
	}
	if ev["duration_ms"].(float64) != 5 {
		t.Fatalf("duration_ms = %v", ev["duration_ms"])
	}
	spans, ok := ev["spans"].(map[string]any)
	if !ok || spans["name"] != "commit" {
		t.Fatalf("spans = %v", ev["spans"])
	}
}

func TestLoggerLevelsAndNil(t *testing.T) {
	var nilLog *Logger
	nilLog.Warn("ignored", nil) // must not panic
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelWarn)
	log.Debug("d", nil)
	log.Info("i", nil)
	log.Warn("w", map[string]any{"k": "v"})
	log.Error("e", nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[0], `"event":"w"`) || !strings.Contains(lines[0], `"k":"v"`) {
		t.Fatalf("warn line = %s", lines[0])
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("upcall.total").Add(7)
	reg.Histogram("upcall.latency").Observe(2 * time.Millisecond)
	tracer := New(Config{})
	tr := tracer.Start("commit")
	tr.Root().Child("wire").End()
	tr.Finish()

	mux := Mux(reg, tracer)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(res.Body)
	res.Body.Close()
	if !strings.Contains(body.String(), "dl_upcall_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", body.String())
	}
	if !strings.Contains(body.String(), "dl_upcall_latency_count 1") {
		t.Fatalf("/metrics missing summary:\n%s", body.String())
	}

	res, err = srv.Client().Get(srv.URL + "/debug/traces?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var traces TracesJSON
	if err := json.NewDecoder(res.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(traces.Recent) != 1 || traces.Recent[0].Op != "commit" {
		t.Fatalf("traces = %+v", traces)
	}

	res, err = srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil || res.StatusCode != 200 {
		t.Fatalf("pprof: %v %v", res, err)
	}
	res.Body.Close()
}

func TestConcurrentSpansAndAdoption(t *testing.T) {
	tracer := New(Config{Capacity: 64})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tr := tracer.Start("op")
				w := tr.Root().Child("wire")
				sp, done := tracer.Adopt(w.Wire(), "server")
				sp.Child("lock").End()
				sp.SetInt("j", int64(j))
				done()
				w.End()
				tr.Finish()
			}
		}()
	}
	// Concurrent readers: the exposition path must tolerate live mutation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, tr := range tracer.Recent(8) {
				tr.JSON()
			}
			tracer.Slowest(4)
		}
	}()
	wg.Wait()
}
