package harness

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"datalinks/internal/metrics"
)

func TestTableRenderAligned(t *testing.T) {
	tbl := &Table{
		Caption: "test table",
		Headers: []string{"name", "value"},
	}
	tbl.AddRow("short", "1")
	tbl.AddRow("a-much-longer-name", "22")
	tbl.Note("footnote %d", 7)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "test table") || !strings.Contains(out, "a-much-longer-name") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "footnote 7") {
		t.Fatal("note missing")
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := &Table{Caption: "md", Headers: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	tbl.Markdown(&buf)
	out := buf.String()
	if !strings.Contains(out, "| a | b |") || !strings.Contains(out, "| 1 | 2 |") {
		t.Fatalf("markdown:\n%s", out)
	}
}

func TestRegistryOrderAndFind(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("registered experiments = %d, want >= 10", len(all))
	}
	// T before F before E, E numerically ordered.
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	want := []string{"T1", "F1", "F2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E20", "E21", "E22", "E23"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", ids, want)
		}
	}
	if _, ok := Find("e6"); !ok {
		t.Fatal("case-insensitive find failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

func TestEveryExperimentHasPaperReference(t *testing.T) {
	for _, e := range All() {
		if e.Paper == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestMeasureAndSummarize(t *testing.T) {
	n := 0
	stats, err := Measure(10, func() error { n++; return nil })
	if err != nil || stats.N != 10 || n != 10 {
		t.Fatalf("measure = %+v, %v (n=%d)", stats, err, n)
	}
	if _, err := Measure(3, func() error { return io.ErrUnexpectedEOF }); err != io.ErrUnexpectedEOF {
		t.Fatalf("measure swallowed the op's error: %v", err)
	}
	// Stats is read off the same histogram production exports: count, mean
	// and max exact, percentiles within its 1% contract.
	var h metrics.Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := Summarize(&h)
	if s.N != 100 || s.Max != 100*time.Millisecond || s.Mean != 50500*time.Microsecond {
		t.Fatalf("summarize = %+v", s)
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{{"p50", s.P50, 50 * time.Millisecond}, {"p95", s.P95, 95 * time.Millisecond}, {"p99", s.P99, 99 * time.Millisecond}} {
		if off := math.Abs(float64(c.got-c.want)) / float64(c.want); off > 0.01 {
			t.Errorf("%s = %v, want %v within 1%%", c.name, c.got, c.want)
		}
	}
	if s := Summarize(&metrics.Histogram{}); s != (Stats{}) {
		t.Fatalf("empty summarize = %+v", s)
	}
}

func TestDurAndPct(t *testing.T) {
	if Dur(1500*time.Nanosecond) != "1.5µs" {
		t.Errorf("Dur micro = %s", Dur(1500*time.Nanosecond))
	}
	if Dur(2500*time.Microsecond) != "2.50ms" {
		t.Errorf("Dur ms = %s", Dur(2500*time.Microsecond))
	}
	if Dur(1500*time.Millisecond) != "1.50s" {
		t.Errorf("Dur s = %s", Dur(1500*time.Millisecond))
	}
	if Pct(0.015) != "1.50%" {
		t.Errorf("Pct = %s", Pct(0.015))
	}
}

// TestRunAllExperiments smoke-runs every registered experiment end to end —
// the same path cmd/dlbench takes — so a regression in any experiment fails
// the suite, not just the tool.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "==== "+e.ID+":") {
			t.Errorf("output missing experiment %s", e.ID)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("an experiment self-check failed:\n%s", out)
	}
}

// TestRunT1EndToEnd executes the full T1 experiment as a test: the observed
// matrix must match the paper's specification.
func TestRunT1EndToEnd(t *testing.T) {
	e, ok := Find("T1")
	if !ok {
		t.Fatal("T1 missing")
	}
	tables, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	obs := tables[1]
	want := map[string][]string{
		//       read-  read+  write- write+ remove rename
		"nff": {"allow", "allow", "allow", "allow", "allow", "allow"},
		"rff": {"allow", "allow", "allow", "deny", "deny", "deny"},
		"rfb": {"allow", "allow", "deny", "deny", "deny", "deny"},
		"rdb": {"deny", "allow", "deny", "deny", "deny", "deny"},
		"rfd": {"allow", "allow", "deny", "allow", "deny", "deny"},
		"rdd": {"deny", "allow", "deny", "allow", "deny", "deny"},
	}
	for _, row := range obs.Rows {
		exp, ok := want[row[0]]
		if !ok {
			t.Errorf("unexpected mode row %v", row)
			continue
		}
		for i, cell := range row[1:] {
			if cell != exp[i] {
				t.Errorf("mode %s col %d = %s, want %s", row[0], i, cell, exp[i])
			}
		}
	}
}

// TestRunE9EndToEnd executes E9 and requires every scenario to PASS.
func TestRunE9EndToEnd(t *testing.T) {
	e, _ := Find("E9")
	tables, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "PASS" {
			t.Errorf("scenario %q = %v", row[0], row)
		}
	}
}

// TestRunE7EndToEnd executes the crash-point sweep and requires PASS.
func TestRunE7EndToEnd(t *testing.T) {
	e, _ := Find("E7")
	tables, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, row := range tables[0].Rows {
		if row[3] != "PASS" {
			t.Errorf("crash point %q: %v", row[0], row)
		}
	}
}

// TestRunE8EndToEnd executes the restore sweep and requires agreement.
func TestRunE8EndToEnd(t *testing.T) {
	e, _ := Find("E8")
	tables, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, row := range tables[0].Rows {
		if row[4] != "PASS" {
			t.Errorf("restore row: %v", row)
		}
	}
}
