// Package harness runs the paper-reproduction experiments: every table and
// figure of the evaluation, plus the quantitative versions of the paper's
// qualitative claims. cmd/dlbench drives it from the command line;
// bench_test.go exposes each experiment as a testing.B benchmark.
package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"datalinks/internal/metrics"
)

// Table is an aligned text table with a caption.
type Table struct {
	Caption string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// timingGate turns a violated wall-clock gate — E21's >= 3x scaling, E23's
// darkness budget — into the run's error, or,
// where the clock cannot be trusted, into a note on t. Those gates are
// statements about the uninstrumented system with the machine to itself:
// the race detector multiplies per-op CPU cost, and `go test ./...` shares
// the box with every other package's tests, so a ratio measured through
// either says nothing (and made tier-1 flaky). `dlbench -exp` enforces them.
// Correctness gates (lost commits, history divergence, span completeness,
// hung clients) never go through here: they are enforced everywhere.
func timingGate(t *Table, id, format string, args ...any) error {
	if raceEnabled || testing.Testing() {
		t.Note("timing gate missed — reported, not enforced under go test or -race: "+format, args...)
		return nil
	}
	return fmt.Errorf(id+" FAILED: "+format, args...)
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Caption)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(w, "  %s", c)
			}
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub-flavoured markdown (EXPERIMENTS.md).
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "**%s**\n\n", t.Caption)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Headers, " | "))
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered reproduction experiment.
type Experiment struct {
	ID    string // "T1", "F1", "E3", ...
	Title string
	Paper string // what the paper reported / claimed
	Run   func() ([]*Table, error)
	// Flags binds the experiment's knobs to command-line flags (nil: it has
	// none). Each exp_*.go keeps its knobs in one unexported config struct
	// whose literal is the defaults; Flags hands the fields themselves to the
	// flag set, so there is no second copy to keep in step.
	Flags func(*flag.FlagSet)
}

// checked binds a flag to *p that refuses, at parse time and naming the
// flag, a value that does not parse or that ok rejects. (The flag package
// prefixes the error with `invalid value "v" for flag -name`.)
func checked[T any](fs *flag.FlagSet, p *T, name, usage, want string, parse func(string) (T, error), ok func(T) bool) {
	fs.Func(name, fmt.Sprintf("%s (default %v)", usage, *p), func(s string) error {
		v, err := parse(s)
		if err != nil || !ok(v) {
			return errors.New("want " + want)
		}
		*p = v
		return nil
	})
}

// posInt binds a count: an integer >= 1.
func posInt(fs *flag.FlagSet, p *int, name, usage string) {
	checked(fs, p, name, usage, "a positive integer", strconv.Atoi, func(n int) bool { return n > 0 })
}

// posDuration binds a duration > 0.
func posDuration(fs *flag.FlagSet, p *time.Duration, name, usage string) {
	checked(fs, p, name, usage, "a positive duration (e.g. 2s)", time.ParseDuration, func(d time.Duration) bool { return d > 0 })
}

// intList is the flag.Value behind every comma-separated list of positive
// counts (-sessions, -e21-servers).
type intList []int

func (l *intList) String() string {
	parts := make([]string, len(*l))
	for i, n := range *l {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func (l *intList) Set(s string) error {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return fmt.Errorf("want comma-separated positive integers, got %q", part)
		}
		out = append(out, n)
	}
	*l = out
	return nil
}

// registry holds all experiments in declaration order.
var registry []Experiment

// Register adds an experiment (called from init functions in this package).
func Register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in a stable order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts T1, F1, F2, then E3..E12 numerically.
func orderKey(id string) string {
	if len(id) < 2 {
		return id
	}
	prefixRank := map[byte]string{'T': "0", 'F': "1", 'E': "2"}
	rank, ok := prefixRank[id[0]]
	if !ok {
		rank = "9"
	}
	return fmt.Sprintf("%s%02s", rank, id[1:])
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, rendering to w.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(w, e); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment, rendering to w. A failed gate still
// renders the tables it returns: they show the rows that failed it.
func RunOne(w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
	fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
	start := time.Now()
	tables, err := e.Run()
	for _, t := range tables {
		t.Render(w)
	}
	if err != nil {
		return fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "(%s ran in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// Stats summarizes a series of duration samples. N, Mean and Max are exact;
// the percentiles are metrics.Histogram quantiles, within 1% of the order
// statistic — the same numbers /metrics exports for a production histogram.
type Stats struct {
	N    int
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Max  time.Duration
}

// Measure runs fn n times and summarizes the per-call latency.
func Measure(n int, fn func() error) (Stats, error) {
	var h metrics.Histogram
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return Stats{}, err
		}
		h.Observe(time.Since(start))
	}
	return Summarize(&h), nil
}

// Summarize reads the table statistics off a histogram.
func Summarize(h *metrics.Histogram) Stats {
	return Stats{
		N:    h.Count(),
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Max:  h.Max(),
	}
}

// Dur formats a duration compactly for table cells.
func Dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// Pct formats a ratio as a percentage.
func Pct(ratio float64) string { return fmt.Sprintf("%.2f%%", ratio*100) }
