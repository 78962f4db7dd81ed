package harness

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/obs"
	"datalinks/internal/retry"
	"datalinks/internal/upcall"
	"datalinks/internal/workload"
)

// traceConfig is E22's knobs: Sessions × Commits drive the completeness
// phase, where every sampled commit trace must tell the whole session→fsync
// story.
type traceConfig struct {
	Sessions int
	Commits  int
}

var e22 = traceConfig{Sessions: 4, Commits: 15}

func (c *traceConfig) flags(fs *flag.FlagSet) {
	posInt(fs, &c.Sessions, "e22-sessions", "E22: sessions in the commit-trace completeness phase")
	posInt(fs, &c.Commits, "e22-commits", "E22: commits per session in the completeness phase")
}

func init() {
	Register(Experiment{
		ID:    "E22",
		Title: "Tracing plane: completeness of one commit's story, attribution of a slow one",
		Paper: "Per-request attribution only earns its keep if it is complete enough to trust: the trace of a commit must actually contain the wire hop, the lock wait, the archive barrier, and the fsync round it claims to decompose — verified, not assumed.",
		Run:   e22.run,
		Flags: e22.flags,
	})
}

// requiredCommitSpans is the span set a commit trace must contain, stitched
// across the client/server boundary, for E22 to pass.
var requiredCommitSpans = []string{"wire", "lock", "archive.barrier", "fsync"}

func (c *traceConfig) run() ([]*Table, error) {
	completeTable, err := c.completeness()
	if err != nil {
		return []*Table{completeTable}, err
	}
	slowTable, err := e22SlowOp()
	return []*Table{completeTable, slowTable}, err
}

// completeness commits over real TCP with tracing on and then audits every
// sampled commit trace for the full story: a wire span (the client attempt),
// a lock span (Sync-table serialization), the archive barrier, and the fsync
// round — stitched across the client/server boundary, in one trace.
func (c *traceConfig) completeness() (*Table, error) {
	sys, srv, err := newSystem(core.ServerConfig{
		Name:          "fs1",
		OpenWait:      10 * time.Second,
		TCPUpcalls:    true,
		Trace:         true,
		TraceCapacity: 4 * c.Sessions * c.Commits,
	}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.DB().MustExec(`CREATE TABLE tr (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY NO, doc_size INT)`)
	for i := 0; i < c.Sessions; i++ {
		if err := seedAndLink(sys, srv, "tr", i, fmt.Sprintf("/t/f%d.bin", i), workload.UniformContent(2048, i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.Sessions; i++ {
		sess := sys.NewSession(expUID)
		for seq := 0; seq < c.Commits; seq++ {
			if err := commitEdit(sys.DB(), sess.OpenWrite, "tr", i, 0, []byte{byte(seq)}); err != nil {
				return nil, err
			}
		}
	}

	commits, complete := 0, 0
	missing := map[string]int{}
	var firstIncomplete string
	unstitched := 0
	for _, tr := range srv.Obs.Recent(4 * c.Sessions * c.Commits) {
		if tr.Op() != "commit" {
			continue
		}
		commits++
		ok := true
		for _, name := range requiredCommitSpans {
			if tr.Root().Find(name) == nil {
				missing[name]++
				ok = false
			}
		}
		// Stitched means the server-side spans hang UNDER the client's wire
		// span — one tree across the TCP boundary, not two siblings.
		wire := tr.Root().Find("wire")
		if wire == nil || wire.Find("server") == nil || wire.Find("dlfm") == nil {
			unstitched++
			ok = false
		}
		if ok {
			complete++
		} else if firstIncomplete == "" {
			var b strings.Builder
			obs.RenderText(&b, tr)
			firstIncomplete = b.String()
		}
	}

	t := &Table{
		Caption: "E22a. Commit-trace completeness over real TCP (wire → lock → archive barrier → fsync)",
		Headers: []string{"commit traces", "complete", "unstitched", "missing spans"},
	}
	missNote := "none"
	if len(missing) > 0 {
		var parts []string
		for _, name := range requiredCommitSpans {
			if missing[name] > 0 {
				parts = append(parts, fmt.Sprintf("%s×%d", name, missing[name]))
			}
		}
		missNote = strings.Join(parts, " ")
	}
	t.AddRow(fmt.Sprintf("%d", commits), fmt.Sprintf("%d", complete), fmt.Sprintf("%d", unstitched), missNote)
	t.Note("required spans: %s — each must appear in the SAME trace as the session-side commit root", strings.Join(requiredCommitSpans, ", "))

	want := c.Sessions * c.Commits
	if commits != want {
		return t, fmt.Errorf("E22 FAILED: expected %d commit traces in the ring, found %d", want, commits)
	}
	if complete != commits {
		return t, fmt.Errorf("E22 FAILED: %d/%d commit traces incomplete; first:\n%s", commits-complete, commits, firstIncomplete)
	}
	return t, nil
}

// e22SlowOp slows one commit down with injected wire delay and checks the
// operator-facing story: the commit surfaces in the slowest-traces list and
// in the slow-op JSON log, with the delay attributed to the wire span — not
// to the DLFM work that didn't cause it.
func e22SlowOp() (*Table, error) {
	const delayMin, delayMax = 8 * time.Millisecond, 10 * time.Millisecond
	const threshold = 4 * time.Millisecond
	var slowLog bytes.Buffer
	sys, srv, err := newSystem(core.ServerConfig{
		Name:            "fs1",
		OpenWait:        10 * time.Second,
		TCPUpcalls:      true,
		Trace:           true,
		SlowOpThreshold: threshold,
		SlowOpLog:       &slowLog,
		UpcallNet: &upcall.NetConfig{Client: upcall.ClientConfig{
			PoolSize:       2,
			AttemptTimeout: 2 * time.Second,
			OpTimeout:      10 * time.Second,
			Retry:          retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			Chaos:          &upcall.Chaos{DelayDist: upcall.Delay{Prob: 1, Min: delayMin, Max: delayMax}},
		}},
	}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.DB().MustExec(`CREATE TABLE slow (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY NO, doc_size INT)`)
	if err := seedAndLink(sys, srv, "slow", 1, "/s/slow.bin", []byte("v1")); err != nil {
		return nil, err
	}
	if err := commitEdit(sys.DB(), sys.NewSession(expUID).OpenWrite, "slow", 1, 0, []byte("v2 slow")); err != nil {
		return nil, err
	}

	var slow *obs.Trace
	for _, tr := range srv.Obs.Slowest(16) {
		if tr.Op() == "commit" {
			slow = tr
			break
		}
	}
	t := &Table{
		Caption: "E22b. Slow-op surfacing: a wire-delayed commit, attributed",
		Headers: []string{"commit wall", "wire chaos_delay_ms", "dlfm span", "slow_op log lines"},
	}
	if slow == nil {
		return t, fmt.Errorf("E22 FAILED: the delayed commit never surfaced in the slowest-traces list")
	}
	wire := slow.Root().Find("wire")
	if wire == nil {
		return t, fmt.Errorf("E22 FAILED: slow commit trace has no wire span")
	}
	chaosMS := 0.0
	if v, ok := wire.Attr("chaos_delay_ms"); ok {
		chaosMS, _ = v.(float64)
	}
	dlfmSpan := slow.Root().Find("dlfm")
	if dlfmSpan == nil {
		return t, fmt.Errorf("E22 FAILED: slow commit trace has no dlfm span")
	}
	logLines := 0
	sawCommit := false
	for _, line := range strings.Split(strings.TrimSpace(slowLog.String()), "\n") {
		if strings.Contains(line, `"event":"slow_op"`) {
			logLines++
			if strings.Contains(line, `"op":"commit"`) {
				sawCommit = true
			}
		}
	}
	t.AddRow(Dur(slow.Duration()), fmt.Sprintf("%.2f", chaosMS),
		Dur(dlfmSpan.Duration()), fmt.Sprintf("%d", logLines))
	t.Note("every wire message is delayed %v–%v; threshold %v — the wall time is the network's fault and the trace must say so", delayMin, delayMax, threshold)

	if slow.Duration() < threshold {
		return t, fmt.Errorf("E22 FAILED: slowest commit (%v) is under the %v threshold", slow.Duration(), threshold)
	}
	if chaosMS < float64(delayMin.Milliseconds()) {
		return t, fmt.Errorf("E22 FAILED: wire span reports %.2fms injected delay, expected >= %dms", chaosMS, delayMin.Milliseconds())
	}
	if _, ok := dlfmSpan.Attr("chaos_delay_ms"); ok {
		return t, fmt.Errorf("E22 FAILED: injected delay leaked onto the dlfm span — misattributed")
	}
	if dlfmSpan.Duration() > slow.Duration()/2 {
		return t, fmt.Errorf("E22 FAILED: dlfm span (%v) absorbs most of the commit wall (%v); the delay belongs to the wire", dlfmSpan.Duration(), slow.Duration())
	}
	if !sawCommit {
		return t, fmt.Errorf("E22 FAILED: no slow_op JSON line for the commit (got %d slow_op lines: %q)", logLines, slowLog.String())
	}
	return t, nil
}
