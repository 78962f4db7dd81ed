package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/metrics"
)

// value is one typed number of the ledger.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// Bound is the regression bound of an end-to-end metric (0: per-layer).
	Bound float64 `json:"bound,omitempty"`
	// N is the sample count behind a timing, 0 where it has no meaning.
	N int `json:"n,omitempty"`
}

// workloadResult is one workload's row group in the ledger.
type workloadResult struct {
	Name      string           `json:"name"`
	Why       string           `json:"why"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []check          `json:"checks"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// ledger is the -json document and the format of baseline.json.
type ledger struct {
	Environment environment      `json:"environment"`
	Workloads   []workloadResult `json:"workloads"`
	Probes      map[string]value `json:"probes"`
	// Claim is the performance claim a result set supports. The change that
	// defines the benchmark claims none.
	Claim *string `json:"claim"`
}

func transportRegistry(m *core.FileServer) *metrics.Registry { return m.Transport.Metrics() }
func dlfmRegistry(m *core.FileServer) *metrics.Registry      { return m.DLFM.Metrics() }

type metricSet map[string]value

func (s metricSet) put(defs []metricDef, name string, v float64, n int) {
	d, ok := defByName(defs, name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue") // a bug in this package, nothing else
	}
	s[name] = value{Value: v, Unit: d.Unit, Better: d.Better, Bound: d.Bound, N: n}
}

// loadOpsPerS is the throughput of the first d of the load window (all of
// it when d is zero or longer than the window): commits and reads per second.
// The traced pass of a full run has a shorter window than the untraced one,
// and throughput drifts down as a run ages, so tracing overhead compares the
// same stretch of both.
func (r *passResult) loadOpsPerS(d time.Duration) float64 {
	if d <= 0 || d > r.loadElapsed {
		d = r.loadElapsed
	}
	if d <= 0 {
		return 0
	}
	n := 0
	for _, end := range r.opEnds {
		if end <= d {
			n++
		}
	}
	return float64(n) / d.Seconds()
}

func ratio(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// endToEndOf names what an untraced pass measured.
func endToEndOf(w workloadDef, r *passResult) metricSet {
	s := metricSet{}
	put := func(name string, v float64, n int) {
		if d, _ := defByName(endToEnd, name); d.on(w.Name) {
			s.put(endToEnd, name, v, n)
		}
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	put("setup_s", median(setups), len(setups))

	timings := func(prefix string, lat []float64, elapsed float64) {
		if len(lat) == 0 {
			return
		}
		put(prefix+"s_per_s", float64(len(lat))/elapsed, len(lat))
		put(prefix+"_p50_ms", percentile(lat, 50), len(lat))
		if highestPercentile(len(lat)) >= 99 {
			put(prefix+"_p99_ms", percentile(lat, 99), len(lat))
		}
	}
	commits, reads, cold := millis(r.commitLat), millis(r.readLat), millis(r.coldLat)
	timings("commit", commits, r.loadElapsed.Seconds())
	timings("read", reads, r.loadElapsed.Seconds())
	if len(cold) > 0 {
		put("coldstart_ms", percentile(cold, 50), len(cold))
	}
	if w.Name == wLargeIngest {
		put("ingest_mb_per_s", float64(r.userBytes)/(1<<20)/r.loadElapsed.Seconds(), len(r.commitLat))
	}
	if r.userBytes > 0 {
		put("disk_bytes_per_user_byte", float64(r.diskGrowth)/float64(r.userBytes), 0)
	}

	put("ops_per_s", float64(r.ops)/r.opsElapsed.Seconds(), r.ops)
	primary := commits
	switch w.Primary {
	case "read_p50_ms":
		primary = reads
	case "coldstart_ms":
		primary = cold
	}
	put("op_p50_ms", percentile(primary, 50), len(primary))
	put("op_p05_ms", percentile(primary, 5), len(primary))
	put("cpu_us_per_op", ratio(float64(r.use.cpu.Microseconds()), r.ops), r.ops)
	put("alloc_kb_per_op", ratio(float64(r.use.allocBytes)/1024, r.ops), r.ops)
	put("mallocs_per_op", ratio(float64(r.use.mallocs), r.ops), r.ops)
	put("peak_rss_mb", r.peakRSS, 0)
	put("failed_ops_share", ratio(float64(r.failed), r.attempted), r.attempted)
	return s
}

// counterRatiosOf names the counter deltas of a pass. "Per commit" divides
// by the commits of the window; on hot_read, which has none, by its reads, so
// that a counter that should not move reads 0 and one that does shows.
func counterRatiosOf(r *passResult) metricSet {
	s := metricSet{}
	commits := len(r.commitLat)
	if commits == 0 {
		commits = r.layerOps
	}
	perCommit := func(name string, v float64) { s.put(perLayer, name, ratio(v, commits), commits) }
	perOp := func(name string, v float64) { s.put(perLayer, name, ratio(v, r.layerOps), r.layerOps) }
	c := r.ctr
	perOp("sqlmini.lock_waits_per_op", c["sqlmini.lock.waits"])
	perOp("sqlmini.lock_wait_us_per_op", c["sqlmini.lock.wait_ns"]/1e3)
	perCommit("engine.meta_updates_per_commit", c["engine.meta_updates"])
	perOp("upcall.calls_per_op", c["upcall.total"])
	s.put(perLayer, "upcall.close_p50_us", r.closeP50, r.layerOps)
	s.put(perLayer, "upcall.close_p99_us", r.closeP99, r.layerOps)
	perOp("upcall.retries_per_op", c["upcall.retries"])
	perOp("dlfs.token_validated_per_op", c["dlfs.token.validated"])
	perCommit("dlfm.archive_bytes_new_per_commit", c["dlfm.archive.bytes_new"])
	perCommit("dlfm.archive_bytes_deduped_per_commit", c["dlfm.archive.bytes_deduped"])
	perCommit("catalog.log_bytes_per_commit", float64(r.catalogBytes))
	perCommit("catalog.fsyncs_per_commit", c["catalog.fsyncs"])
	perCommit("chunkdisk.fsyncs_per_commit", c["chunkdisk.fsyncs"])
	perCommit("chunkdisk.pack_appends_per_commit", c["chunkdisk.pack.appends"])
	perCommit("chunkdisk.files_created_per_commit", c["tier.files_created"])
	perCommit("chunkdisk.spills_per_commit", c["tier.spills"])
	perOp("chunkdisk.pageins_per_op", c["tier.pageins"])
	perOp("chunkdisk.evictions_per_op", c["tier.evictions"])
	perCommit("fsyncer.rounds_per_commit", c["chunkdisk.fsyncs"]+c["catalog.fsyncs"]+c["wal.syncs"])
	perCommit("wal.bytes_per_commit", float64(r.walBytes))
	perCommit("wal.syncs_per_commit", c["wal.syncs"])
	perOp("core.ring_forwards_per_op", c["ring.forwards"])
	s.put(perLayer, "core.repl_ship_p50_us", r.shipP50, int(c["repl.ships"]))
	s.put(perLayer, "core.repl_ship_p99_us", r.shipP99, int(c["repl.ships"]))
	perCommit("core.repl_quorum_waits_per_commit", c["repl.quorum_waits"])
	return s
}

// traceMetricsOf names the budget table of a traced pass; a span that never
// occurred on the workload reads 0. Overhead compares the traced pass with
// the same stretch of the untraced one.
func traceMetricsOf(traced, untraced *passResult) metricSet {
	s := metricSet{}
	for _, span := range traceSpans {
		s.put(perLayer, "trace."+span+".self_us_p50", traced.trace.selfP50(span), traced.trace.joined)
		s.put(perLayer, "trace."+span+".share", traced.trace.share(span), traced.trace.joined)
	}
	overhead := 0.0
	if base := untraced.loadOpsPerS(traced.loadElapsed); base > 0 {
		overhead = 1 - traced.loadOpsPerS(0)/base
	}
	s.put(perLayer, "trace.overhead_share", overhead, traced.ops)
	return s
}

func probeMetrics(vals map[string]float64) metricSet {
	s := metricSet{}
	for name, v := range vals {
		s.put(perLayer, name, v, 0)
	}
	return s
}

func arrow(better string) string {
	if better == higher {
		return "↑"
	}
	return "↓"
}

func printSet(w io.Writer, title string, s map[string]value) {
	if len(s) == 0 {
		return
	}
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s\n", title)
	for _, n := range names {
		v := s[n]
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  n=%d", v.N)
		}
		if v.Bound > 0 {
			extra += fmt.Sprintf("  bound=%.2f", v.Bound)
		}
		fmt.Fprintf(w, "    %-42s %14.4f %-6s %s%s\n", n, v.Value, v.Unit, arrow(v.Better), extra)
	}
}

// printLedger renders the ledger as the text table.
func printLedger(w io.Writer, l *ledger) {
	e := l.Environment
	fmt.Fprintf(w, "datalinks reference-stack ledger — commit %s, %s, nproc %d, GOMAXPROCS %d\n", e.GitCommit, e.GoVersion, e.NProc, e.GOMAXPROCS)
	fmt.Fprintf(w, "run dir %s (%s), seed %d, window %.0fs after %.1fs warm-up, traced window %.0fs\n", e.RunDir, e.RunDirFS, e.Seed, e.WindowS, e.WarmupS, e.TracedWindowS)
	if e.DeviceFdatasyncUS > 0 {
		fmt.Fprintf(w, "numbers are this sandbox's, not a disk's: fdatasync costs %.1f us in the run dir, %.1f us on the checkout's disk\n", e.RunDirDeviceFdatasyncUS, e.DeviceFdatasyncUS)
	}
	fmt.Fprintln(w)
	for _, wr := range l.Workloads {
		fmt.Fprintf(w, "%s — %s\n", wr.Name, wr.Why)
		printSet(w, "end to end", wr.EndToEnd)
		printSet(w, "per layer", wr.PerLayer)
		for _, c := range wr.Checks {
			mark := "ok  "
			if !c.OK {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "  check %s %s %s\n", mark, c.Name, c.Detail)
		}
		fmt.Fprintln(w)
	}
	if len(l.Probes) > 0 {
		fmt.Fprintln(w, "probes — each layer's public functions, timed from outside")
		printSet(w, "per layer", l.Probes)
	}
}

func (l *ledger) failedChecks() []string {
	var out []string
	for _, wr := range l.Workloads {
		for _, c := range wr.Checks {
			if !c.OK {
				out = append(out, fmt.Sprintf("%s: %s: %s", wr.Name, c.Name, c.Detail))
			}
		}
	}
	return out
}
