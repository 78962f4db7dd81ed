package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// -compare: the mechanical comparison of two result sets of this benchmark.

type verdict string

const (
	vOK         verdict = "ok"
	vRegressed  verdict = "regressed"
	vImproved   verdict = "improved"
	vUnresolved verdict = "unresolved"
)

// gain is the relative change of a metric in its better direction: positive
// means the new value is better.
func gain(old, new float64, better string) float64 {
	if better == lower {
		return -signedChange(old, new)
	}
	return signedChange(old, new)
}

// judge turns a gain into a verdict against the metric's bound. Beyond the
// bound a change is resolved, one way or the other. Within it the run-to-run
// spread may be all there is: a third of the bound is the spread the
// benchmark is tuned to stay under, so a change below that is ok, and one
// between that and the bound is unresolved — neither a gain nor unchanged.
func judge(g, bound float64) verdict {
	switch {
	case g < -bound:
		return vRegressed
	case g > bound:
		return vImproved
	case math.Abs(g) > bound/3:
		return vUnresolved
	}
	return vOK
}

func loadLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// compareLedgers prints, per workload and metric, old, new, the relative
// change, the bound and the verdict, then the per-layer metric that moved
// most. It returns the end-to-end regressions it found.
func compareLedgers(w io.Writer, old, new *ledger) []string {
	var regressions []string
	oldByName := map[string]workloadResult{}
	for _, wr := range old.Workloads {
		oldByName[wr.Name] = wr
	}
	if old.Environment.RunDirFS != new.Environment.RunDirFS || old.Environment.NProc != new.Environment.NProc {
		fmt.Fprintf(w, "warning: environments differ (run dir on %s vs %s, nproc %d vs %d); timings are not comparable\n\n",
			old.Environment.RunDirFS, new.Environment.RunDirFS, old.Environment.NProc, new.Environment.NProc)
	}
	for _, nw := range new.Workloads {
		ow, ok := oldByName[nw.Name]
		if !ok {
			fmt.Fprintf(w, "%s: not in the old result set\n\n", nw.Name)
			continue
		}
		fmt.Fprintf(w, "%s\n", nw.Name)
		fmt.Fprintf(w, "  %-42s %14s %14s %9s %6s  %s\n", "end to end", "old", "new", "change", "bound", "verdict")
		for _, name := range sortedNames(nw.EndToEnd) {
			nv := nw.EndToEnd[name]
			ov, ok := ow.EndToEnd[name]
			if !ok {
				fmt.Fprintf(w, "  %-42s %14s %14.4f\n", name, "-", nv.Value)
				continue
			}
			g := gain(ov.Value, nv.Value, nv.Better)
			v := judge(g, nv.Bound)
			fmt.Fprintf(w, "  %-42s %14.4f %14.4f %+8.1f%% %6.2f  %s\n", name, ov.Value, nv.Value, 100*signedChange(ov.Value, nv.Value), nv.Bound, v)
			if v == vRegressed {
				regressions = append(regressions, nw.Name+"/"+name)
			}
		}
		moved, movedBy := "", 0.0
		fmt.Fprintf(w, "  %-42s %14s %14s %9s\n", "per layer", "old", "new", "change")
		for _, name := range sortedNames(nw.PerLayer) {
			nv := nw.PerLayer[name]
			ov, ok := ow.PerLayer[name]
			if !ok {
				continue
			}
			ch := signedChange(ov.Value, nv.Value)
			fmt.Fprintf(w, "  %-42s %14.4f %14.4f %+8.1f%%\n", name, ov.Value, nv.Value, 100*ch)
			if math.Abs(ch) > movedBy {
				moved, movedBy = name, math.Abs(ch)
			}
		}
		if moved != "" {
			fmt.Fprintf(w, "  moved most: %s (%+.1f%%)\n", moved, 100*signedChange(ow.PerLayer[moved].Value, nw.PerLayer[moved].Value))
		}
		fmt.Fprintln(w)
	}
	return regressions
}

// signedChange is (new-old)/|old|: 0 for a metric that was 0 and still is,
// ±Inf for one that left 0.
func signedChange(old, new float64) float64 {
	if old == new {
		return 0
	}
	if old == 0 {
		return math.Inf(int(math.Copysign(1, new)))
	}
	return (new - old) / math.Abs(old)
}
