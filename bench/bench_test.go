package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"datalinks/internal/extent"
	"datalinks/internal/workload"
)

// opTrail draws n operations from a fresh generator and digests everything
// the program under test would see of them.
func opTrail(seed int64, n int) [sha256.Size]byte {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	h := sha256.New()
	for _, zipfian := range []bool{false, true} {
		g := newOpGen(seed, wSmallCommit, 1, ids, zipfian)
		buf := make([]byte, commitBytes)
		for i := 0; i < n; i++ {
			g.fill(buf)
			h.Write([]byte{byte(g.nextFile()), byte(g.nextOffset(popFileBytes, commitBytes) >> 12)})
			h.Write(buf)
		}
	}
	h.Write(fileContent(seed, 3, restartFileBytes))
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	if opTrail(7, 200) != opTrail(7, 200) {
		t.Fatal("the same seed generated different inputs")
	}
	if opTrail(7, 200) == opTrail(8, 200) {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestSealedBlocksDetectDamage(t *testing.T) {
	p := fileContent(1, 0, 4*blockSize)
	for off := 0; off < len(p); off += blockSize {
		if !blockOK(p[off : off+blockSize]) {
			t.Fatalf("seed block at %d does not verify", off)
		}
	}
	p[blockSize+17] ^= 1
	if blockOK(p[blockSize : 2*blockSize]) {
		t.Fatal("a flipped bit went unnoticed")
	}
	if !blockOK(p[:blockSize]) {
		t.Fatal("damage in one block spoiled its neighbour")
	}
}

func TestIngestStampsMakeEveryChunkUnique(t *testing.T) {
	base := make([]byte, ingestBytes)
	workload.RNG(1).Read(base)
	seen := map[[sha256.Size]byte]bool{}
	for op := uint64(1); op <= 3; op++ {
		stampIngest(base, op)
		for off := 0; off < len(base); off += extent.ChunkSize {
			sum := sha256.Sum256(base[off : off+extent.ChunkSize])
			if seen[sum] {
				t.Fatalf("operation %d repeats a chunk at %d: it would dedupe", op, off)
			}
			seen[sum] = true
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// Nearest rank: p99 of 1..1000 is 990 and leaves exactly ten beyond it.
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestSelfTimesTileTheRoot(t *testing.T) {
	// root [0,100)
	//   a [10,60)   with a1 [20,30)
	//   b [40,50)   starts inside a: takes the overlap
	//   c [90,120)  outlives root: clipped to [90,100)
	//   d [100,110) entirely outside: nothing
	root := &spanNode{Name: "root", Start: 0, End: 100, Kids: []*spanNode{
		{Name: "a", Start: 10, End: 60, Kids: []*spanNode{{Name: "a1", Start: 20, End: 30}}},
		{Name: "b", Start: 40, End: 50},
		{Name: "c", Start: 90, End: 120},
		{Name: "d", Start: 100, End: 110},
	}}
	got := map[string]int64{}
	selfTimes(root, []interval{{root.Start, root.End}}, func(name string, d int64) { got[name] += d })
	want := map[string]int64{"root": 40, "a": 30, "a1": 10, "b": 10, "c": 10}
	var sum int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
		sum += got[name]
	}
	if _, ok := got["d"]; ok {
		t.Errorf("span outside its parent was charged %d", got["d"])
	}
	if sum != root.End-root.Start {
		t.Errorf("self times add up to %d, want the root's %d", sum, root.End-root.Start)
	}
}

func TestBucketOfFoldsSessionAndWire(t *testing.T) {
	for name, want := range map[string]string{
		"commit": "session", "upcall": "session", "server": "wire", "wire": "wire",
		"repl.ship": "repl.ship", "archive.barrier": "archive.barrier", "no-such-span": "",
	} {
		if got := bucketOf(name); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCompareVerdictsOnFixtures(t *testing.T) {
	old, err := loadLedger("testdata/compare_old.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadLedger("testdata/compare_new.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressions := compareLedgers(&out, old, cur)
	if len(regressions) != 1 || regressions[0] != "small_commit/commit_p50_ms" {
		t.Errorf("regressions = %v, want [small_commit/commit_p50_ms]", regressions)
	}
	for metric, verdict := range map[string]verdict{
		"commit_p50_ms":  vRegressed,  // 1.5 -> 2.0 ms, lower is better, bound 0.15
		"commits_per_s":  vImproved,   // 1000 -> 1300
		"cpu_us_per_op":  vUnresolved, // +10%, bound 0.15
		"mallocs_per_op": vOK,         // unchanged
		"setup_s":        vOK,         // +5%, bound 0.25
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
				found = true
				if f[len(f)-1] != string(verdict) {
					t.Errorf("%s judged %q, want %q", metric, f[len(f)-1], verdict)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from:\n%s", metric, out.String())
		}
	}
	if !strings.Contains(out.String(), "moved most: wal.syncs_per_commit (+50.0%)") {
		t.Errorf("the per-layer metric that moved most is not named in:\n%s", out.String())
	}
	if regs := compareLedgers(io.Discard, old, old); len(regs) != 0 {
		t.Errorf("a result set regressed against itself: %v", regs)
	}
}

func TestJudgeBoundaries(t *testing.T) {
	for _, c := range []struct {
		gain, bound float64
		want        verdict
	}{
		{0, 0.15, vOK}, {-0.04, 0.15, vOK}, {0.04, 0.15, vOK},
		{-0.06, 0.15, vUnresolved}, {0.15, 0.15, vUnresolved}, {-0.15, 0.15, vUnresolved},
		{-0.16, 0.15, vRegressed}, {0.16, 0.15, vImproved},
	} {
		if got := judge(c.gain, c.bound); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.gain, c.bound, got, c.want)
		}
	}
	if g := gain(2, 1, lower); g != 0.5 {
		t.Errorf("halving a lower-is-better metric is a gain of %v, want 0.5", g)
	}
	if g := gain(100, 80, higher); g != -0.2 {
		t.Errorf("losing a fifth of a higher-is-better metric is a gain of %v, want -0.2", g)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONFollowsTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, want %s: %s", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	contract := contractDefs(gated)
	if len(bf.EndToEnd) != len(contract) {
		t.Fatalf("%d end-to-end metrics declared, the catalogue gates %d", len(bf.EndToEnd), len(contract))
	}
	hasSetup := false
	for i, d := range contract {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s %v", i, got, d.Name, d.Unit, d.Better, d.Bound)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("the contract needs setup_s among the end-to-end metrics")
	}
	layers := contractDefs(reported)
	if len(bf.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per-layer metrics declared, the catalogue has %d (limit 128)", len(bf.PerLayer), len(layers))
	}
	for i, d := range layers {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Contract != notInContract && d.On != nil {
			t.Errorf("%s is in the contract but not reported by every workload", d.Name)
		}
	}
}

func TestCatalogueNamesAreUniqueAndDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not list %s", d.Name)
		}
	}
	for _, w := range workloads {
		if _, ok := defByName(endToEnd, w.Primary); !ok {
			t.Errorf("%s: primary metric %s is not in the catalogue", w.Name, w.Primary)
		}
	}
}

// TestSmokeEveryWorkload runs the whole ledger at toy sizes: 1 s windows, a
// 32 MiB ingest, a 24-version restart archive. Every output check must pass
// and every declared metric must appear exactly once where it applies.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads (about 15 s)")
	}
	o := defaultOptions()
	o.window = time.Second
	o.ingestTotal = 32 << 20
	o.restartFiles, o.restartRounds, o.minReopens = 8, 3, 2
	o.dir = runDirFor("")
	t.Cleanup(func() { os.RemoveAll(o.dir) })

	l, err := buildLedger(workloads, o, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if failed := l.failedChecks(); len(failed) > 0 {
		t.Fatalf("output checks failed:\n%s", strings.Join(failed, "\n"))
	}
	if l.Claim != nil {
		t.Errorf("the ledger claims %q; the benchmark's own change claims nothing", *l.Claim)
	}

	probeNames := map[string]bool{}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Source, srcProbe) {
			probeNames[d.Name] = true
			if _, ok := l.Probes[d.Name]; !ok {
				t.Errorf("probe %s was not reported", d.Name)
			}
		}
	}
	for name := range l.Probes {
		if !probeNames[name] {
			t.Errorf("undeclared probe %s", name)
		}
	}

	for _, wr := range l.Workloads {
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", wr.Name, wr.Attempted, wr.Failed)
		}
		for _, d := range endToEnd {
			v, got := wr.EndToEnd[d.Name]
			want := d.on(wr.Name)
			if strings.HasSuffix(d.Name, "_p99_ms") && want {
				// The tail is reported only once there are 1000 samples.
				p50 := wr.EndToEnd[strings.TrimSuffix(d.Name, "_p99_ms")+"_p50_ms"]
				want = p50.N >= 1000
			}
			if got != want {
				t.Errorf("%s: %s reported=%v, want %v", wr.Name, d.Name, got, want)
			}
			if got && d.Contract != notInContract && v.Value <= 0 {
				t.Errorf("%s: contract metric %s = %v, must never be 0", wr.Name, d.Name, v.Value)
			}
		}
		for name := range wr.EndToEnd {
			if _, ok := defByName(endToEnd, name); !ok {
				t.Errorf("%s: undeclared end-to-end metric %s", wr.Name, name)
			}
		}
		for _, d := range perLayer {
			_, got := wr.PerLayer[d.Name]
			want := strings.HasPrefix(d.Source, srcCounter) ||
				(strings.HasPrefix(d.Source, srcTrace) && tracedWorkloads[wr.Name])
			if got != want {
				t.Errorf("%s: per-layer %s reported=%v, want %v", wr.Name, d.Name, got, want)
			}
		}
		for name := range wr.PerLayer {
			if _, ok := defByName(perLayer, name); !ok || probeNames[name] {
				t.Errorf("%s: per-layer metric %s is undeclared or belongs to the probes", wr.Name, name)
			}
		}
		if tracedWorkloads[wr.Name] {
			var sum float64
			for _, s := range traceSpans {
				sum += wr.PerLayer["trace."+s+".share"].Value
			}
			if sum < 0.95 || sum > 1.05 {
				t.Errorf("%s: trace shares add up to %.3f, want 1.0 ± 0.05", wr.Name, sum)
			}
		}
	}
}
