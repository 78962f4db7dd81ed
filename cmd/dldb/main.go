// Command dldb is an interactive SQL shell over a DataLinks-enabled host
// database with one or more in-memory file servers attached — a playground
// for the whole system.
//
// SQL statements execute directly. Dot-commands drive the file-server side:
//
//	.help                              this help
//	.seed <server> <path> <text>       create a file (owned by uid 100)
//	.cat <server> <path>               print a file's content
//	.ls <server> <dir>                 list a directory
//	.read <url>                        open+read via the file API (token URLs work)
//	.update <url> <text>               in-place update transaction (write-token URL)
//	.versions <server> <path>          archived versions of a linked file
//	.linked <server>                   linked files on a server
//	.state                             current database state id
//	.backup / .restore <stateid>       coordinated backup/point-in-time restore
//	.crash <server>                    crash + recover a file server
//	.metrics                           upcall/engine counters
//	.quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"datalinks"
)

func main() {
	servers := flag.String("servers", "fs1", "comma-separated file server names")
	flag.Parse()

	var cfgs []datalinks.ServerConfig
	for _, name := range strings.Split(*servers, ",") {
		cfgs = append(cfgs, datalinks.ServerConfig{Name: strings.TrimSpace(name)})
	}
	sys, err := datalinks.Open(datalinks.Config{Servers: cfgs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dldb:", err)
		os.Exit(1)
	}
	defer sys.Close()
	sess := sys.Session(100)

	fmt.Printf("dldb — DataLinks shell. Servers: %s. Type .help for commands.\n", *servers)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("dldb> ")
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if !dot(sys, sess, line) {
				return
			}
			continue
		}
		runSQL(sys, line)
	}
}

func runSQL(sys *datalinks.System, stmt string) {
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") {
		rows, err := sys.Query(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(strings.Join(rows.Cols, " | "))
		for _, r := range rows.Data {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = fmt.Sprintf("%v", v)
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		fmt.Printf("(%d rows)\n", len(rows.Data))
		return
	}
	n, err := sys.Exec(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("ok (%d rows affected)\n", n)
}

// dot handles a dot-command; returns false to quit.
func dot(sys *datalinks.System, sess *datalinks.Session, line string) bool {
	fields := strings.Fields(line)
	cmd := fields[0]
	arg := func(i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return ""
	}
	rest := func(i int) string {
		if i < len(fields) {
			return strings.Join(fields[i:], " ")
		}
		return ""
	}
	switch cmd {
	case ".quit", ".exit":
		return false
	case ".help":
		fmt.Println("SQL or: .seed .cat .ls .read .update .versions .linked .state .backup .restore .crash .metrics .quit")
	case ".seed":
		fsrv, err := sys.FileServer(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if err := fsrv.SeedFile(arg(2), []byte(rest(3)), 100); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("ok")
	case ".cat":
		fsrv, err := sys.FileServer(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		data, err := fsrv.ReadFile(arg(2))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(string(data))
	case ".ls":
		fsrv, err := sys.FileServer(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		names, err := fsrv.ListDir(arg(2))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case ".read":
		f, err := sess.OpenRead(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		data, err := f.ReadAll()
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(string(data))
	case ".update":
		f, err := sess.OpenWrite(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if err := f.WriteAll([]byte(rest(2))); err != nil {
			fmt.Println("error:", err)
			f.Abort()
			break
		}
		if err := f.Close(); err != nil {
			fmt.Println("commit failed:", err)
			break
		}
		fmt.Println("committed")
	case ".versions":
		fsrv, err := sys.FileServer(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(fsrv.Versions(arg(2)))
	case ".linked":
		fsrv, err := sys.FileServer(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, p := range fsrv.LinkedFiles() {
			fmt.Println(p)
		}
	case ".state":
		fmt.Println(sys.StateID())
	case ".backup":
		fmt.Printf("backup point: state id %d (use .restore %d)\n", sys.StateID(), sys.StateID())
	case ".restore":
		id, err := strconv.ParseUint(arg(1), 10, 64)
		if err != nil {
			fmt.Println("usage: .restore <stateid>")
			break
		}
		if err := sys.RestoreToState(id); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("restored database and linked files to state", id)
	case ".crash":
		rep, err := sys.CrashAndRecoverServer(arg(1))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("recovered: %d files restored, %d archives completed, commits=%v aborts=%v\n",
			len(rep.RestoredFiles), len(rep.ArchivedVersions), rep.ResolvedCommit, rep.ResolvedAbort)
	case ".metrics":
		for _, name := range strings.Split(flagServers(), ",") {
			fsrv, err := sys.FileServer(strings.TrimSpace(name))
			if err == nil {
				fmt.Printf("%s upcalls: %d\n", name, fsrv.UpcallCount())
			}
		}
	default:
		fmt.Println("unknown command; try .help")
	}
	return true
}

func flagServers() string {
	f := flag.Lookup("servers")
	if f == nil {
		return "fs1"
	}
	return f.Value.String()
}
