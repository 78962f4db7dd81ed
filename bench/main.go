// Command bench is the repository's benchmark: five named workloads against
// the reference stack (three members over TCP upcalls, durable repo + archive
// with group fsync, two replicas), through the public datalinks API, with
// end-to-end and per-layer numbers for the paper's two units of work — one
// in-place update transaction on a linked file and one read of a linked file.
//
//	go -C bench run .                         all five workloads, probes, traced pass
//	go -C bench run . -json > new.json        the same, as the typed ledger
//	go -C bench run . -compare new.json       against baseline.json
//	go -C bench run . --workload hot_read --seed 3 --seconds 10 --trace 0
//
// The last form is the one BENCHMARK.json declares: one workload, one line of
// JSON at the end. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// tracedWindow is the window of the traced pass of a full run.
const tracedWindow = 8 * time.Second

// tracedWorkloads get a traced pass in a full run: the three whose budget
// table the roadmap asks for. A --trace 1 run traces whichever it is given.
var tracedWorkloads = map[string]bool{wSmallCommit: true, wHotRead: true, wMixedCoexist: true}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default: all five)")
		seed         = flag.Int64("seed", 1, "seed of the input generator")
		seconds      = flag.Int("seconds", 20, "length of each timed window in seconds")
		dirFlag      = flag.String("dir", "", "parent of the run directories (default: /dev/shm when present, else bench/out)")
		traced       = flag.Bool("traced", true, "after the untraced pass, rerun small_commit, hot_read and mixed_coexist traced")
		contract     = flag.Int("trace", -1, "single-workload run for BENCHMARK.json: 0 prints the end-to-end metrics as the last line, 1 the per-layer metrics")
		asJSON       = flag.Bool("json", false, "print the ledger as JSON on standard output (the table goes to standard error)")
		compare      = flag.Bool("compare", false, "compare result sets: -compare [old.json] new.json (old defaults to baseline.json)")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	selected := workloads
	if *workloadFlag != "" {
		selected = nil
		for _, name := range strings.Split(*workloadFlag, ",") {
			w, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}

	o := defaultOptions()
	o.seed = *seed
	o.window = time.Duration(*seconds) * time.Second
	o.dir = runDirFor(*dirFlag)
	cleanup := func() {
		if *dirFlag == "" {
			os.RemoveAll(o.dir)
		}
	}
	// An interrupted run must not leave gigabytes behind in /dev/shm.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	var code int
	if *contract >= 0 {
		if len(selected) != 1 || *contract > 1 {
			fatalf("--trace 0|1 takes exactly one --workload")
		}
		code = runContract(selected[0], o, *contract == 1)
	} else {
		code = runFull(selected, o, *traced, *asJSON)
	}
	cleanup()
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func runPass(w workloadDef, o options) (*passResult, error) {
	if w.Name == wRestart {
		return runRestart(w, o)
	}
	return runClustered(w, o)
}

// setupsPerRun is how often an untraced pass sets its stack up, so that
// setup_s is a median and not one sample.
const setupsPerRun = 7

// buildLedger is the one-command ledger: every selected workload untraced,
// the probes, then the traced pass.
func buildLedger(selected []workloadDef, o options, traced bool, progress io.Writer) (*ledger, error) {
	tw := tracedWindow
	if o.window < tw {
		tw = o.window
	}
	l := &ledger{Environment: newEnvironment(o, tw.Seconds())}

	untraced := map[string]*passResult{}
	for _, w := range selected {
		fmt.Fprintf(progress, "running %s (%.0fs window)...\n", w.Name, o.window.Seconds())
		po := o
		po.setups = setupsPerRun
		res, err := runPass(w, po)
		if err != nil {
			return nil, err
		}
		untraced[w.Name] = res
		l.Workloads = append(l.Workloads, workloadResult{
			Name: w.Name, Why: w.Why, Attempted: res.attempted, Failed: res.failed, Checks: res.checks,
			EndToEnd: endToEndOf(w, res), PerLayer: counterRatiosOf(res),
		})
	}

	fmt.Fprintln(progress, "running probes...")
	probes, err := runProbes(o.dir, o.seed)
	if err != nil {
		return nil, err
	}
	l.Probes = probeMetrics(probes)
	l.Environment.DeviceFdatasyncUS = probes["device.fdatasync_us"]
	l.Environment.RunDirDeviceFdatasyncUS = probes["device.rundir_fdatasync_us"]

	for i, w := range selected {
		if !traced || !tracedWorkloads[w.Name] {
			continue
		}
		fmt.Fprintf(progress, "running %s traced (%.0fs window)...\n", w.Name, tw.Seconds())
		po := o
		po.window, po.traced, po.setups = tw, true, 1
		res, err := runPass(w, po)
		if err != nil {
			return nil, err
		}
		if err := writeTraceFile(w.Name, res.benchOps); err != nil {
			return nil, err
		}
		wr := &l.Workloads[i]
		for name, v := range traceMetricsOf(res, untraced[w.Name]) {
			wr.PerLayer[name] = v
		}
		wr.Checks = append(wr.Checks, tracedChecks(res)...)
	}
	return l, nil
}

// tracedChecks are the checks of a traced pass, told apart from those of the
// untraced pass over the same workload.
func tracedChecks(res *passResult) []check {
	out := make([]check, len(res.checks))
	for i, c := range res.checks {
		c.Name = "traced pass: " + c.Name
		out[i] = c
	}
	return out
}

// runFull prints the ledger; any failed output check makes it exit non-zero,
// after the table.
func runFull(selected []workloadDef, o options, traced, asJSON bool) int {
	l, err := buildLedger(selected, o, traced, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if asJSON {
		printLedger(os.Stderr, l)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(l); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else {
		printLedger(os.Stdout, l)
	}
	return reportChecks(l)
}

func reportChecks(l *ledger) int {
	failed := l.failedChecks()
	if len(failed) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: %d output checks failed:\n%s\n", len(failed), strings.Join(failed, "\n"))
	return 1
}

// contractLine is the last line of a BENCHMARK.json run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is one run as the driver makes it: one workload, measured for
// the given window. Untraced, it prints the gated end-to-end metrics. Traced,
// it splits the window between an untraced and a traced pass (their ratio is
// the tracing overhead), runs the probes, and prints every per-layer metric
// plus the end-to-end timings that are reported without a gate.
func runContract(w workloadDef, o options, traced bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	wr := workloadResult{Name: w.Name, Why: w.Why}
	l := &ledger{Environment: newEnvironment(o, 0)}
	line := contractLine{Metrics: map[string]contractMetric{}}
	emit := func(defs []metricDef, s metricSet) {
		for _, d := range defs {
			line.Metrics[d.Name] = contractMetric{Value: s[d.Name].Value, Unit: d.Unit}
		}
	}

	if !traced {
		o.setups = setupsPerRun
		res, err := runPass(w, o)
		if err != nil {
			return fail(err)
		}
		wr.Attempted, wr.Failed, wr.Checks = res.attempted, res.failed, res.checks
		wr.EndToEnd, wr.PerLayer = endToEndOf(w, res), counterRatiosOf(res)
		emit(contractDefs(gated), wr.EndToEnd)
	} else {
		o.window /= 2
		o.setups = 1
		l.Environment = newEnvironment(o, o.window.Seconds())
		plain, err := runPass(w, o)
		if err != nil {
			return fail(err)
		}
		o.traced = true
		res, err := runPass(w, o)
		if err != nil {
			return fail(err)
		}
		if err := writeTraceFile(w.Name, res.benchOps); err != nil {
			return fail(err)
		}
		probes, err := runProbes(o.dir, o.seed)
		if err != nil {
			return fail(err)
		}
		wr.Attempted, wr.Failed = plain.attempted+res.attempted, plain.failed+res.failed
		wr.Checks = append(plain.checks, tracedChecks(res)...)
		wr.EndToEnd = endToEndOf(w, plain)
		wr.PerLayer = counterRatiosOf(res)
		for name, v := range traceMetricsOf(res, plain) {
			wr.PerLayer[name] = v
		}
		l.Probes = probeMetrics(probes)
		all := metricSet{}
		for _, s := range []map[string]value{wr.EndToEnd, wr.PerLayer, l.Probes} {
			for name, v := range s {
				all[name] = v
			}
		}
		emit(contractDefs(reported), all)
	}

	l.Workloads = []workloadResult{wr}
	printLedger(os.Stdout, l)
	line.Correct, line.Attempted, line.Failed = len(l.failedChecks()) == 0, wr.Attempted, wr.Failed
	b, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", b)
	return reportChecks(l)
}

// runCompare implements -compare [old.json] new.json.
func runCompare(args []string) int {
	var oldPath, newPath string
	switch len(args) {
	case 1:
		oldPath, newPath = filepath.Join(filepath.Dir(outDir()), "baseline.json"), args[0]
	case 2:
		oldPath, newPath = args[0], args[1]
	default:
		fatalf("-compare takes [old.json] new.json")
	}
	old, err := loadLedger(oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := loadLedger(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("old: %s (commit %s)\nnew: %s (commit %s)\n\n", oldPath, old.Environment.GitCommit, newPath, cur.Environment.GitCommit)
	regressions := compareLedgers(os.Stdout, old, cur)
	if len(regressions) > 0 {
		fmt.Printf("REGRESSED: %s\n", strings.Join(regressions, ", "))
		return 1
	}
	fmt.Println("no end-to-end regression")
	return 0
}
