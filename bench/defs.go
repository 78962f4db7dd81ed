package main

// The metric catalogue: every name the benchmark may print, with its unit,
// direction and — for end-to-end metrics — the regression bound. README.md's
// table, BENCHMARK.json and -compare's verdicts all follow this file (the
// tests check the first two against it).

const (
	lower  = "lower"
	higher = "higher"
)

// The five workloads. Names are fixed; later issues cite them.
const (
	wSmallCommit  = "small_commit"
	wHotRead      = "hot_read"
	wLargeIngest  = "large_ingest"
	wMixedCoexist = "mixed_coexist"
	wRestart      = "restart"
)

type workloadDef struct {
	Name string
	// Why is BENCHMARK.json's one-line reason for the workload.
	Why string
	// Primary names the latency metric op_p50_ms aliases on this workload.
	Primary string
}

var workloads = []workloadDef{
	{wSmallCommit, "4 KiB in-place update transactions on 64 x 256 KiB replicated files: per-commit overheads (wire, lock, 2PC, WAL, archive barrier, fsync, repl.ship) dominate", "commit_p50_ms"},
	{wHotRead, "zipfian 16 KiB token reads, no writes: the bypass workload, the commit path must do nothing, so a commit-path change predicts no movement", "read_p50_ms"},
	{wLargeIngest, "1 MiB appends per commit with a 32 MiB archive cache: chunking, hashing, loose blobs, LRU spill and bulk repl shipping dominate", "commit_p50_ms"},
	{wMixedCoexist, "one whole-file reader and one 4 KiB committer over the same 64 rdd files: a gain on one side that costs the other shows", "commit_p50_ms"},
	{wRestart, "single server, 5120 packed versions, crash then cold reopen to first read served: recovery time, and commits without replication or ring", "coldstart_ms"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare (and the driver) call it a regression: 0.05 for
	// the allocation counts (they repeat to a fraction of a percent, except on
	// restart, where they drift by 1-2% with how many reopens fit the window),
	// 0.02 for the other count ratios, and for everything timed 0.25, the most
	// the contract allows and still less than 1.5 x the five-set spread the
	// issue's formula asks for (README, "Bounds"). Zero for per-layer metrics:
	// they explain, they do not gate.
	Bound float64
	// Source says where the number comes from (README table).
	Source string
	// On lists the workloads that report the metric; nil means all five.
	On []string
	// Contract says whether BENCHMARK.json lists the metric, which only a
	// metric every workload reports can be: gated ones under end_to_end with
	// their bound, reported ones under per_layer, where nothing is gated.
	Contract contractRole
}

type contractRole int

const (
	notInContract contractRole = iota
	gated
	reported
)

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	committers = []string{wSmallCommit, wLargeIngest, wMixedCoexist, wRestart}
	readers    = []string{wHotRead, wMixedCoexist}
	writers    = committers
)

// endToEnd lists what a user of the system would see. The first block is
// what every workload can report (op = the workload's primary operation, see
// workloadDef.Primary) and so what BENCHMARK.json can list; the
// operation-specific names below it are what later issues cite.
//
// Of the universal ones only those that repeat are gated. On this sandbox's
// two shared vCPUs every timing swings with the host: between identical runs
// the median latency, the throughput and the CPU time of hot_read differ by
// 20-60%, and in a noisy quarter of an hour even the 5th-percentile latency
// of small_commit moved by a third (README, "Bounds") — wider than any bound
// the contract allows. Following the issue's rule — do not ship an end-to-end
// metric that cannot repeat within a tenth — the timings are reported without
// a gate; what is gated is what the program decides alone: how much it
// allocates and keeps resident per operation, and how long set-up takes.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Source: "median of the set-ups of one run: stack open + seed + link", Contract: gated},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.05, Source: "runtime.MemStats TotalAlloc delta / completed ops", Contract: gated},
	{Name: "mallocs_per_op", Unit: "count", Better: lower, Bound: 0.05, Source: "runtime.MemStats Mallocs delta / completed ops", Contract: gated},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25, Source: "VmHWM of the process, reset before the workload", Contract: gated},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Source: "completed operations of all clients / window (restart: reopens)", Contract: reported},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Source: "median latency of the workload's primary operation", Contract: reported},
	{Name: "op_p05_ms", Unit: "ms", Better: lower, Bound: 0.25, Source: "5th percentile of the same latency: the floor, which host interference moves least", Contract: reported},
	{Name: "cpu_us_per_op", Unit: "us", Better: lower, Bound: 0.25, Source: "getrusage user+sys over the window / completed ops", Contract: reported},

	{Name: "commits_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Source: "commits acknowledged / window (restart: build phase)", On: committers},
	{Name: "commit_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Source: "token SELECT through Close ack, median", On: committers},
	{Name: "commit_p99_ms", Unit: "ms", Better: lower, Bound: 0.25, Source: "same, p99; only with >= 1000 samples", On: committers},
	{Name: "reads_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Source: "reads completed / window", On: readers},
	{Name: "read_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Source: "token SELECT through Close, median", On: readers},
	{Name: "read_p99_ms", Unit: "ms", Better: lower, Bound: 0.25, Source: "same, p99; only with >= 1000 samples", On: readers},
	{Name: "ingest_mb_per_s", Unit: "MiB/s", Better: higher, Bound: 0.25, Source: "user bytes committed / window", On: []string{wLargeIngest}},
	{Name: "coldstart_ms", Unit: "ms", Better: lower, Bound: 0.25, Source: "Open on the crashed dirs until the first linked read is served, median of the reopens", On: []string{wRestart}},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: lower, Bound: 0.02, Source: "growth of all Repo+Archive dirs / user bytes written", On: writers},
	{Name: "failed_ops_share", Unit: "ratio", Better: lower, Bound: 0.02, Source: "failed or refused ops / attempted"},
}

// contractDefs returns the metrics BENCHMARK.json lists under end_to_end
// (gated) or under per_layer (everything per-layer, then the reported
// end-to-end ones), in catalogue order.
func contractDefs(role contractRole) []metricDef {
	var out []metricDef
	if role == reported {
		out = append(out, perLayer...)
	}
	for _, d := range endToEnd {
		if d.Contract == role {
			out = append(out, d)
		}
	}
	return out
}

// traceSpans are the rows of the commit (and read) budget table: the
// benchmark's own spans around each call it makes, then the program's.
var traceSpans = []string{
	"select_token", "open", "write", "read", "close",
	"session", "wire", "dlfm", "lock", "2pc", "archive", "archive.barrier", "fsync", "repl.ship", "repl.ack",
}

const (
	srcProbe   = "probe"
	srcCounter = "counter ratio"
	srcTrace   = "trace"
)

// perLayer lists the numbers that explain an end-to-end movement. Source
// starts with the kind (probe, counter ratio, trace); the rest of the text is
// the arrow of the issue: which end-to-end metric it should move, and where.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	p := func(name, unit, better, note string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Source: srcProbe + ": " + note}
	}
	c := func(name, unit, note string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: lower, Source: srcCounter + ": " + note}
	}
	defs := []metricDef{
		p("token.issue_validate_us", "us", lower, "Authority.Issue + Validate -> read_p50_ms on hot_read"),
		p("sqlmini.select_token_us", "us", lower, "SELECT DLURLCOMPLETE on a 64-row table -> commit_p50_ms on small_commit"),
		p("sqlmini.update_commit_us", "us", lower, "autocommit UPDATE on a disk-WAL DB, group fsync -> commit_p50_ms on small_commit"),
		c("sqlmini.lock_waits_per_op", "count", "host + repo lock manager waits -> commit_p99_ms/read_p99_ms on mixed_coexist"),
		c("sqlmini.lock_wait_us_per_op", "us", "time spent in those waits"),
		c("engine.meta_updates_per_commit", "count", "engine.meta_updates -> commit_p50_ms on small_commit"),
		p("upcall.rtt_us", "us", lower, "pooled Client.Upcall to a no-op Service over loopback -> read_p50_ms on hot_read"),
		p("upcall.alloc_b_per_call", "B", lower, "bytes allocated per such call, both ends -> alloc_kb_per_op everywhere"),
		c("upcall.calls_per_op", "count", "upcall.total -> reads_per_s on hot_read; flat on large_ingest"),
		c("upcall.close_p50_us", "us", "upcall.latency.close histogram, count-weighted over members"),
		c("upcall.close_p99_us", "us", "same, p99"),
		c("upcall.retries_per_op", "count", "upcall.retries; 0 without faults"),
		c("dlfs.token_validated_per_op", "count", "dlfs.token.validated -> hot_read reads"),
		p("fs.read_16k_us", "us", lower, "fs.ReadAt 16 KiB of a 256 KiB file -> read_p50_ms on hot_read"),
		p("fs.write_4k_us", "us", lower, "fs.WriteAt 4 KiB -> commit_p50_ms on small_commit"),
		p("extent.write_snapshot_us", "us", lower, "4 KiB WriteAt + Snapshot on a 256 KiB buffer -> ingest_mb_per_s on large_ingest"),
		p("extent.alloc_b_per_write", "B", lower, "bytes allocated by that pair -> alloc_kb_per_op on small_commit"),
		c("dlfm.archive_bytes_new_per_commit", "B", "dlfm.archive.bytes_new -> disk_bytes_per_user_byte on small_commit"),
		c("dlfm.archive_bytes_deduped_per_commit", "B", "dlfm.archive.bytes_deduped"),
		p("archive.put_delta_us", "us", lower, "PutSnapshotCtx of a one-chunk-changed snapshot, tiered store -> commit_p50_ms on small_commit"),
		p("archive.put_alloc_b", "B", lower, "bytes allocated by that put"),
		p("archive.get_latest_us", "us", lower, "Latest + Snapshot -> coldstart_ms on restart (materialisation)"),
		p("archive.asof_us", "us", lower, "AsOf mid-history + Snapshot"),
		p("catalog.append_us", "us", lower, "AppendPut of a one-mod delta record -> commit_p50_ms on small_commit"),
		c("catalog.log_bytes_per_commit", "B", "growth of catalog.log, sampled 5x/s -> disk_bytes_per_user_byte on small_commit"),
		c("catalog.fsyncs_per_commit", "count", "catalog.fsyncs -> commits_per_s on small_commit"),
		p("catalog.open_ms_per_10k_recs", "ms", lower, "Open of a 10 000-record log -> coldstart_ms on restart"),
		p("chunkdisk.put_us", "us", lower, "Put of a fresh 64 KiB chunk, packed -> commit_p50_ms on small_commit"),
		p("chunkdisk.get_cold_us", "us", lower, "Get of a chunk evicted from the LRU -> coldstart_ms on restart"),
		c("chunkdisk.fsyncs_per_commit", "count", "chunkdisk.fsyncs -> commits_per_s on small_commit"),
		c("chunkdisk.pack_appends_per_commit", "count", "chunkdisk.pack.appends"),
		c("chunkdisk.files_created_per_commit", "count", "Tier().FilesCreated -> commits_per_s on small_commit"),
		c("chunkdisk.spills_per_commit", "count", "Tier().Spills -> ingest_mb_per_s on large_ingest; ~1 per chunk elsewhere"),
		c("chunkdisk.pageins_per_op", "count", "Tier().PageIns -> peak_rss_mb/ingest_mb_per_s on large_ingest"),
		c("chunkdisk.evictions_per_op", "count", "Tier().Evictions -> same"),
		p("chunkdisk.open_ms_per_10k_blobs", "ms", lower, "Open of a store holding 10 000 packed blobs -> coldstart_ms on restart"),
		p("fsyncer.barrier_us", "us", lower, "group Barrier after a 4 KiB append in the run dir -> commit_p50_ms on small_commit"),
		c("fsyncer.rounds_per_commit", "count", "physical flushes of the chunk, catalog and WAL syncers together; >= 0.5 with 2 clients"),
		p("wal.append_flush_us", "us", lower, "Append of a 256 B record + Flush, group fsync -> commit_p50_ms on small_commit"),
		c("wal.bytes_per_commit", "B", "growth of the repo WAL segments, sampled 5x/s"),
		c("wal.syncs_per_commit", "count", "wal.Log.SyncCount -> commits_per_s on small_commit"),
		p("wal.open_replay_ms_per_10k_recs", "ms", lower, "Open of a 10 000-record log -> coldstart_ms on restart"),
		p("ring.successors_ns", "ns", lower, "Ring.SuccessorsFor(path, 3) on 3 members -> commit_p50_ms on small_commit"),
		c("core.ring_forwards_per_op", "count", "ring.forwards; 0 without migration"),
		c("core.repl_ship_p50_us", "us", "repl.ship histogram -> commit_p50_ms on small_commit, ingest_mb_per_s on large_ingest; absent on restart"),
		c("core.repl_ship_p99_us", "us", "same, p99"),
		c("core.repl_quorum_waits_per_commit", "count", "repl.quorum_waits; 0 without faults"),
		p("device.fdatasync_us", "us", lower, "4 KiB append + fdatasync on the checkout's disk; context only"),
		p("device.rundir_fdatasync_us", "us", lower, "same in the run dir; context only"),
	}
	for _, s := range traceSpans {
		defs = append(defs,
			metricDef{Name: "trace." + s + ".self_us_p50", Unit: "us", Better: lower, Source: srcTrace + ": median self time per operation that has the span"},
			metricDef{Name: "trace." + s + ".share", Unit: "ratio", Better: lower, Source: srcTrace + ": self time / summed operation wall"},
		)
	}
	return append(defs, metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: lower, Source: srcTrace + ": 1 - traced/untraced ops_per_s"})
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
