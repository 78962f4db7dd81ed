// Command dlctl demonstrates the administrative workflows of DataLinks on a
// self-contained system: linking/unlinking, status inspection, coordinated
// backup/restore, and crash recovery. Each -demo runs a scripted scenario
// and narrates what the system does.
//
//	dlctl -demo status
//	dlctl -demo backup-restore
//	dlctl -demo crash
//	dlctl -demo ring
//	dlctl -demo failover
//	dlctl -demo trace
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"datalinks"
	"datalinks/internal/obs"
	"datalinks/internal/upcall"
)

func main() {
	demo := flag.String("demo", "status", "scenario: status | backup-restore | crash | ring | failover | trace")
	flag.Parse()

	if *demo == "ring" {
		ringDemo()
		return
	}
	if *demo == "failover" {
		failoverDemo()
		return
	}
	if *demo == "trace" {
		traceDemo()
		return
	}

	sys, err := datalinks.Open(datalinks.Config{
		Servers: []datalinks.ServerConfig{{Name: "fs1"}},
	})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	fsrv, _ := sys.FileServer("fs1")

	// Common setup: two linked files.
	must(fsrv.SeedFile("/docs/contract.pdf", []byte("contract v1"), 100))
	must(fsrv.SeedFile("/docs/report.pdf", []byte("report v1"), 100))
	sys.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT)`)
	sys.MustExec(`INSERT INTO docs (id, doc) VALUES (1, DLVALUE('dlfs://fs1/docs/contract.pdf'))`)
	sys.MustExec(`INSERT INTO docs (id, doc) VALUES (2, DLVALUE('dlfs://fs1/docs/report.pdf'))`)

	switch *demo {
	case "status":
		fmt.Println("== dlctl status ==")
		fmt.Println("state id:   ", sys.StateID())
		fmt.Println("linked:     ", fsrv.LinkedFiles())
		fmt.Println("upcalls:    ", fsrv.UpcallCount())
		rows, _ := sys.Query(`SELECT id, DLURLPATHONLY(doc) FROM docs ORDER BY id`)
		for _, r := range rows.Data {
			fmt.Printf("row %v -> %v\n", r[0], r[1])
		}
	case "backup-restore":
		fmt.Println("== coordinated backup/restore (§4.4) ==")
		backupState := sys.StateID()
		fmt.Println("backup taken at state", backupState)

		url, err := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = 1`)
		must(err)
		f, err := sys.Session(100).OpenWrite(url)
		must(err)
		must(f.WriteAll([]byte("contract v2 SIGNED")))
		must(f.Close())
		data, _ := fsrv.ReadFile("/docs/contract.pdf")
		fmt.Printf("after update: %q (versions %v)\n", data, fsrv.Versions("/docs/contract.pdf"))

		must(sys.RestoreToState(backupState))
		data, _ = fsrv.ReadFile("/docs/contract.pdf")
		fmt.Printf("after restore to %d: %q\n", backupState, data)
	case "crash":
		fmt.Println("== crash recovery (§4.2) ==")
		url, err := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = 2`)
		must(err)
		f, err := sys.Session(100).OpenWrite(url)
		must(err)
		f.WriteAll([]byte("report v2 — NEVER COMMITTED"))
		fmt.Println("update in flight; crashing the file server now...")
		rep, err := sys.CrashAndRecoverServer("fs1")
		must(err)
		fmt.Printf("recovery: restored=%v archived=%v\n", rep.RestoredFiles, rep.ArchivedVersions)
		fsrv2, _ := sys.FileServer("fs1")
		data, _ := fsrv2.ReadFile("/docs/report.pdf")
		fmt.Printf("file content after recovery: %q (the last committed version)\n", data)
		quarantined, _ := fsrv2.ListDir("/lost+found")
		fmt.Println("quarantined in-flight versions:", quarantined)
	default:
		fmt.Fprintf(os.Stderr, "dlctl: unknown demo %q\n", *demo)
		os.Exit(1)
	}
}

// ringDemo inspects the scale-out namespace: where the consistent-hash ring
// places each linked path, which successors replicate it, how many shards
// each member serves, and what the migration and replication counters record
// after the cluster grows by one member.
func ringDemo() {
	fmt.Println("== dlctl ring: placement, successor lists, migration status ==")
	c, err := datalinks.OpenCluster(datalinks.ClusterConfig{
		Members:     []datalinks.ServerConfig{{Name: "fs1"}, {Name: "fs2"}},
		Replicas:    2,
		WriteQuorum: 2,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	c.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	const files = 12
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/docs/doc%02d.pdf", i)
		must(c.SeedFile(paths[i], []byte(fmt.Sprintf("doc %d v1", i)), 100))
		c.MustExec(fmt.Sprintf(`INSERT INTO docs (id, doc) VALUES (%d, DLVALUE('%s'))`, i, c.URL(paths[i])))
	}

	fmt.Printf("\nauthority %q, members %v\n", c.Authority(), c.Members())
	fmt.Println("\npath -> replica set (owner first, then ring successors):")
	for _, p := range paths {
		fmt.Printf("  %-22s -> %v\n", p, c.ReplicaSet(p))
	}

	fmt.Println("\nper-server shard counts:")
	printPlacements(c.Placements())

	fmt.Println("\ngrowing the cluster: AddServer fs3 (live rebalance)...")
	must(c.AddServer(datalinks.ServerConfig{Name: "fs3"}))

	fmt.Println("\nper-server shard counts after rebalance:")
	printPlacements(c.Placements())

	reg := c.Internal().Router().Metrics()
	fmt.Println("\nmigration status:")
	for _, nv := range reg.Snapshot() {
		fmt.Printf("  %-18s %d\n", nv.Name+":", nv.Value)
	}
	printReplCounters(c)

	fmt.Println("\nreplica sets after growth:")
	for _, p := range paths {
		fmt.Printf("  %-22s -> %v\n", p, c.ReplicaSet(p))
	}
}

// failoverDemo exercises replicated shards end to end: every path's committed
// history lives on its owner and its ring successor, a member machine dies,
// and Failover promotes the surviving replicas in place — no cold start and
// no history travels; reads and writes continue on the survivors.
func failoverDemo() {
	fmt.Println("== dlctl failover: successor replication, promote in place ==")
	c, err := datalinks.OpenCluster(datalinks.ClusterConfig{
		Members:     []datalinks.ServerConfig{{Name: "fs1"}, {Name: "fs2"}, {Name: "fs3"}},
		Replicas:    2,
		WriteQuorum: 2,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	c.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	const files = 8
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/docs/doc%02d.pdf", i)
		must(c.SeedFile(paths[i], []byte(fmt.Sprintf("doc %d v1", i)), 100))
		c.MustExec(fmt.Sprintf(`INSERT INTO docs (id, doc) VALUES (%d, DLVALUE('%s'))`, i, c.URL(paths[i])))
	}
	// Commit an update through each path so the replicas carry real history,
	// shipped synchronously at the commit barrier (write quorum 2).
	for i, p := range paths {
		url, err := c.QueryString(fmt.Sprintf(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = %d`, i))
		must(err)
		f, err := c.Session(100).OpenWrite(url)
		must(err)
		must(f.WriteAll([]byte(fmt.Sprintf("doc %d v2 REPLICATED", i))))
		must(f.Close())
		_ = p
	}

	fmt.Printf("\nmembers %v; replica sets (owner first, then successors):\n", c.Members())
	for _, p := range paths {
		fmt.Printf("  %-22s -> %v\n", p, c.ReplicaSet(p))
	}

	victim := mustOwner(c, paths[0])
	fmt.Printf("\nmachine %s dies (FailServer); failing over its shards...\n", victim)
	must(c.FailServer(victim))
	rep, err := c.Failover(victim)
	must(err)
	fmt.Printf("failover promoted %d paths in %v: %v\n", len(rep.Promoted), rep.Elapsed.Round(time.Microsecond), rep.Promoted)

	fmt.Println("\nreplica sets after failover (promoted successors now own):")
	for _, p := range paths {
		fmt.Printf("  %-22s -> %v\n", p, c.ReplicaSet(p))
	}

	fmt.Println("\nreading every path from the survivors:")
	for i, p := range paths {
		url, err := c.QueryString(fmt.Sprintf(`SELECT DLURLCOMPLETE(doc) FROM docs WHERE id = %d`, i))
		must(err)
		f, err := c.Session(100).OpenRead(url)
		must(err)
		data, err := f.ReadAll()
		must(err)
		must(f.Close())
		fmt.Printf("  %-22s -> %q (owner %s)\n", p, data, mustOwner(c, p))
	}

	printReplCounters(c)
}

// printReplCounters renders every repl.* counter across the cluster's
// registries: the router's (failovers, stale reads, probe deaths) and each
// member DLFM's (ships, applies, promotions, quorum waits).
func printReplCounters(c *datalinks.Cluster) {
	fmt.Println("\nreplication counters:")
	regs := c.Internal().Metrics()
	names := make([]string, 0, len(regs))
	for name := range regs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, nv := range regs[name].Snapshot() {
			if !strings.Contains(nv.Name, "repl.") {
				continue
			}
			fmt.Printf("  %-10s %-26s %d\n", name, nv.Name, nv.Value)
		}
	}
}

func mustOwner(c *datalinks.Cluster, path string) string {
	owner, err := c.Owner(path)
	must(err)
	return owner
}

// traceDemo follows one commit from the session API to the archive fsync: a
// TCP-deployed server with tracing on, a chaos-delayed wire, and a slow-op
// threshold low enough that the delayed commit trips it. It prints the
// slowest trace as an indented span tree and the slow_op JSON line the
// threshold emitted.
func traceDemo() {
	fmt.Println("== dlctl trace: follow one commit from session to fsync ==")
	var slowLog bytes.Buffer
	sys, err := datalinks.Open(datalinks.Config{
		Servers: []datalinks.ServerConfig{{
			Name:            "fs1",
			TCPUpcalls:      true,
			Trace:           true,
			SlowOpThreshold: 2 * time.Millisecond,
			SlowOpLog:       &slowLog,
			UpcallNet: &upcall.NetConfig{
				Client: upcall.ClientConfig{
					Chaos: &upcall.Chaos{DelayDist: upcall.Delay{Prob: 1, Min: 3 * time.Millisecond, Max: 4 * time.Millisecond}},
				},
			},
		}},
	})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	fsrv, _ := sys.FileServer("fs1")
	must(fsrv.SeedFile("/docs/contract.pdf", []byte("contract v1"), 100))
	sys.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT)`)
	sys.MustExec(`INSERT INTO docs (id, doc) VALUES (1, DLVALUE('dlfs://fs1/docs/contract.pdf'))`)

	url, err := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = 1`)
	must(err)
	f, err := sys.Session(100).OpenWrite(url)
	must(err)
	must(f.WriteAll([]byte("contract v2 SIGNED")))
	must(f.Close())

	tracer := fsrv.Internal().Obs
	fmt.Println("\nslowest traces (span trees; chaos delays the wire 3–4ms per upcall):")
	for _, tr := range tracer.Slowest(3) {
		obs.RenderText(os.Stdout, tr)
	}
	fmt.Println("slow_op events (one-line JSON, span tree embedded):")
	os.Stdout.Write(slowLog.Bytes())
}

// printPlacements renders a member -> linked-path-count map in sorted order.
func printPlacements(pl map[string]int) {
	ids := make([]string, 0, len(pl))
	for id := range pl {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("  %-6s %d shards\n", id, pl[id])
	}
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlctl:", err)
	os.Exit(1)
}
