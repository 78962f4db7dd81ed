package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"datalinks/internal/obs"
)

// The traced pass: the benchmark's own spans around each call it makes,
// joined to the span trees the program records under ServerConfig.Trace, and
// reduced to self time per layer. No span is added inside the program.

// spanNode is one span of the joined tree, in unix nanoseconds.
type spanNode struct {
	Name       string      `json:"name"`
	Start, End int64       `json:"-"`
	Kids       []*spanNode `json:"-"`
}

// bucketOf maps a program span name onto a row of the budget table. The
// session-side spans (the trace root, named after the operation, and the
// DLFS "upcall" span under it) are the session layer; the client attempt and
// the server's frame handling are the wire. A name the table does not know
// returns "", which leaves its self time with the nearest known ancestor.
func bucketOf(name string) string {
	switch name {
	case "open", "read", "write", "close", "commit", "upcall":
		return "session"
	case "server":
		return "wire"
	}
	for _, s := range traceSpans {
		if s == name {
			return s
		}
	}
	return ""
}

// interval is a half-open stretch of unix nanoseconds.
type interval struct{ lo, hi int64 }

// clip intersects windows with [lo, hi).
func clip(windows []interval, lo, hi int64) []interval {
	var out []interval
	for _, w := range windows {
		if l, h := max(w.lo, lo), min(w.hi, hi); h > l {
			out = append(out, interval{l, h})
		}
	}
	return out
}

// subtract removes [lo, hi) from windows.
func subtract(windows []interval, lo, hi int64) []interval {
	var out []interval
	for _, w := range windows {
		if l, h := w.lo, min(w.hi, lo); h > l {
			out = append(out, interval{l, h})
		}
		if l, h := max(w.lo, hi), w.hi; h > l {
			out = append(out, interval{l, h})
		}
	}
	return out
}

// selfTimes walks a span tree and reports each span's self time: its
// duration minus the interval its children cover. It attributes the wall
// time inside windows the way a flame graph does — every instant belongs to
// the most recently started span open at that instant — so a child is
// clipped to its parent, a span that starts while its sibling is still open
// (repl.ship beside the asynchronous archive job) takes the overlap, and the
// self times of a tree add up to exactly the root's duration.
func selfTimes(n *spanNode, windows []interval, add func(name string, self int64)) {
	own := clip(windows, n.Start, n.End)
	if len(own) == 0 {
		return
	}
	kids := append([]*spanNode(nil), n.Kids...)
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start > kids[j].Start })
	for _, k := range kids {
		if kw := clip(own, k.Start, k.End); len(kw) > 0 {
			own = subtract(own, k.Start, k.End)
			selfTimes(k, kw, add)
		}
	}
	var self int64
	for _, w := range own {
		self += w.hi - w.lo
	}
	add(n.Name, self)
}

// programTrace is one completed trace read from a member's ring.
type programTrace struct {
	root  *spanNode
	taken bool
}

// fromSpanJSON converts the program's span rendering, renaming spans to
// their budget-table rows. Spans still open when the trace was read render
// with duration 0 and vanish under clipping.
func fromSpanJSON(s obs.SpanJSON, parentBucket string) *spanNode {
	start, err := time.Parse(time.RFC3339Nano, s.Start)
	if err != nil {
		return nil
	}
	name := bucketOf(s.Name)
	if name == "" {
		name = parentBucket
	}
	n := &spanNode{Name: name, Start: start.UnixNano()}
	n.End = n.Start + int64(s.DurationMS*1e6)
	for _, c := range s.Children {
		if k := fromSpanJSON(c, name); k != nil {
			n.Kids = append(n.Kids, k)
		}
	}
	return n
}

// traceReport accumulates the budget table of one traced pass.
type traceReport struct {
	joined int                  // operations whose program traces were all found
	perOp  map[string][]float64 // span -> self time in us, per joined operation that has it
	total  map[string]int64     // span -> summed self time, ns
	wall   int64                // summed wall time of the joined operations, ns
}

func newTraceReport() *traceReport {
	return &traceReport{perOp: map[string][]float64{}, total: map[string]int64{}}
}

// selfP50 is the median self time of a span in us; share its summed self
// time over the summed operation wall. Both are 0 for a span never seen.
func (r *traceReport) selfP50(span string) float64 { return median(r.perOp[span]) }

func (r *traceReport) share(span string) float64 {
	if r.wall == 0 {
		return 0
	}
	return float64(r.total[span]) / float64(r.wall)
}

// join attaches the program's open, read/write and commit/close traces to
// the benchmark operation whose call interval contains their start, and
// folds every joined operation into the budget table. Only the operations
// still in the members' trace rings can be joined.
func (r *traceReport) join(t *target, ops []opTimes) {
	t.waitArchives() // archive spans finish on the archiver goroutine
	byKey := map[string][]*programTrace{}
	for _, m := range t.members() {
		for _, tr := range m.Obs.Recent(0) {
			j := tr.JSON()
			path, _ := j.Root.Attrs["path"].(string)
			root := fromSpanJSON(j.Root, "session")
			if root == nil {
				continue
			}
			op := j.Op
			switch op {
			case "commit":
				op = "close"
			case "read", "write":
				op = "io"
			}
			key := op + " " + path
			byKey[key] = append(byKey[key], &programTrace{root: root})
		}
	}
	for _, list := range byKey {
		sort.Slice(list, func(i, j int) bool { return list[i].root.Start < list[j].root.Start })
	}
	take := func(op, path string, lo, hi int64) *spanNode {
		list := byKey[op+" "+path]
		i := sort.Search(len(list), func(i int) bool { return list[i].root.Start >= lo })
		for ; i < len(list) && list[i].root.Start <= hi; i++ {
			if !list[i].taken {
				list[i].taken = true
				return list[i].root
			}
		}
		return nil
	}

	for _, op := range ops {
		path := filePath(op.File)
		open := take("open", path, op.T[1], op.T[2])
		io := take("io", path, op.T[2], op.T[3])
		cl := take("close", path, op.T[3], op.T[4])
		if open == nil || io == nil || cl == nil {
			continue
		}
		ioName := "read"
		if op.Commit {
			ioName = "write"
		}
		root := &spanNode{Start: op.T[0], End: op.T[4], Kids: []*spanNode{
			{Name: "select_token", Start: op.T[0], End: op.T[1]},
			{Name: "open", Start: op.T[1], End: op.T[2], Kids: []*spanNode{open}},
			{Name: ioName, Start: op.T[2], End: op.T[3], Kids: []*spanNode{io}},
			{Name: "close", Start: op.T[3], End: op.T[4], Kids: []*spanNode{cl}},
		}}
		self := map[string]int64{}
		selfTimes(root, []interval{{root.Start, root.End}}, func(name string, d int64) { self[name] += d })
		for name, d := range self {
			if name == "" {
				continue // the four calls tile the operation: the root keeps nothing
			}
			r.perOp[name] = append(r.perOp[name], float64(d)/1e3)
			r.total[name] += d
		}
		r.wall += root.End - root.Start
		r.joined++
	}
}

// traceFile is what a traced pass leaves in bench/out: every operation of
// the window with the benchmark's own spans, identified by client and index.
type traceFile struct {
	Workload string    `json:"workload"`
	Spans    []string  `json:"spans"`
	Note     string    `json:"note"`
	Ops      []opTimes `json:"ops"`
}

func writeTraceFile(workload string, ops []opTimes) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{
		Workload: workload,
		Spans:    []string{"select_token", "open", "write|read", "close"},
		Note:     "span i of an operation runs from t_unix_ns[i] to t_unix_ns[i+1]; all spans of one operation share (client, index)",
		Ops:      ops,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir(), "trace-"+workload+".json"), b, 0o644)
}
