// Command dlbench runs the paper-reproduction experiments: every table and
// figure of "Database Managed External File Update" (ICDE 2001) plus the
// quantified versions of its design arguments, and the system gates (E13–E23)
// that fail the run on a violated invariant. Perf claims are made in the
// ledger under bench/, not here.
//
// Usage:
//
//	dlbench                 # run every experiment
//	dlbench -exp E6         # run one experiment
//	dlbench -list           # list experiments
//	dlbench -markdown       # render results as markdown (EXPERIMENTS.md body)
//	dlbench -json           # render the same tables as JSON
//
// Each experiment owns its flags (internal/harness: one config struct per
// exp_*.go, bound by its flags method); dlbench -h lists them all. A count
// or duration that is not positive, or a malformed list, is refused at parse
// time with the flag's name.
//
// The E13 concurrency experiment (aggregate throughput and lock contention
// counters vs concurrent sessions; -net puts the upcalls on real TCP):
//
//	dlbench -exp E13 -sessions 1,8,32 -servers 4 -ops 200 -upcall-latency 500us
//
// The E14 large-file update experiment (bytes archived vs bytes written):
//
//	dlbench -exp E14 -filesize 64 -edits 16 -editsize 64
//
// The E15 durable tiered-archive experiment (disk spill, bounded resident
// memory, page-in and GC counters):
//
//	dlbench -exp E15 -e15-files 3 -e15-filesize 8 -e15-versions 10 -e15-budget 4
//	dlbench -exp E15 -e15-dir /var/tmp/archive -e15-compress
//
// The E16 restart-recovery experiment commits a deterministic version
// history, hard-restarts the process state, and proves the durable catalog
// serves every version byte-identically with zero re-archiving. Run it twice
// against the same -e16-dir and the second run skips the churn entirely,
// cold-serving the first run's history (E18 does the same for a whole-process
// kill, with -e18-dir / -e18-fsync):
//
//	dlbench -exp E16 -e16-dir /var/tmp/e16 -e16-fsync group
//	dlbench -exp E16 -e16-dir /var/tmp/e16    # verify-only: zero device transfer
//
// The E20 chaos soak takes its fault mix from -e20-drop / -e20-reset /
// -e20-delay / -e20-seed; the E21 scale-out rounds their cluster sizes from
// -e21-servers 1,4,16.
//
// The E22 tracing experiment prices the observability plane on the E13 hot
// path (tracing on vs off, best-of rounds) and audits every commit trace for
// the full session→wire→lock→archive-barrier→fsync span story over real TCP:
//
//	dlbench -exp E22 -e22-rounds 5 -e22-sessions 8 -e22-commits 20
//
// The E23 failover experiment soaks commits against a replicated cluster
// (Replicas=2, write quorum 2), kills a member mid-round without telling the
// router, and lets the health probe detect the death and promote replicas in
// place. It FAILS on any lost acked commit, on per-path unavailability beyond
// the declared budget, or on owner/replica history divergence after quiesce:
//
//	dlbench -exp E23 -e23-round 5s -e23-writers 32 -e23-budget 1s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"datalinks/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "", "run a single experiment by id (e.g. T1, E6)")
		list     = flag.Bool("list", false, "list experiments and exit")
		markdown = flag.Bool("markdown", false, "render tables as markdown")
		jsonOut  = flag.Bool("json", false, "render tables as JSON")
	)
	for _, e := range harness.All() {
		if e.Flags != nil {
			e.Flags(flag.CommandLine)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	run := func(e harness.Experiment) error {
		switch {
		case *jsonOut:
			tables, err := e.Run()
			if err != nil {
				return err
			}
			return enc.Encode(map[string]any{
				"experiment": e.ID,
				"title":      e.Title,
				"tables":     tables,
			})
		case *markdown:
			fmt.Printf("### %s: %s\n\n", e.ID, e.Title)
			fmt.Printf("*Paper:* %s\n\n", e.Paper)
			tables, err := e.Run()
			if err != nil {
				return err
			}
			for _, t := range tables {
				t.Markdown(os.Stdout)
			}
			return nil
		default:
			return harness.RunOne(os.Stdout, e)
		}
	}

	if *exp != "" {
		e, ok := harness.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "dlbench: no experiment %q (use -list)\n", *exp)
			os.Exit(1)
		}
		if err := run(e); err != nil {
			fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range harness.All() {
		if err := run(e); err != nil {
			fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
			os.Exit(1)
		}
	}
}
