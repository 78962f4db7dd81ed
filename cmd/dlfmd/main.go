// Command dlfmd runs a standalone DataLinks File Manager serving its upcall
// protocol over TCP — the deployment shape of Figure 1, where DLFM is a
// user-space daemon on each file server and DLFS reaches it via IPC.
//
// The daemon owns an in-memory physical file system seeded from -seed flags,
// a local archive store and its repository, whose packs, catalog and WAL
// live in private temporary directories removed when the daemon exits. A
// DLFS configured with upcall.Dial(addr) can mount against it from another
// process.
//
//	dlfmd -addr 127.0.0.1:7707 -name fs1 -seed /data/a.txt=hello -selftest
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/dlfm"
	"datalinks/internal/fs"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// standaloneHost is a minimal Host for a DLFM without a database attached:
// metadata updates commit trivially and every outcome is "committed". Used
// only by this demo daemon; in a real deployment the DataLinks engine serves
// this interface.
type standaloneHost struct{ state uint64 }

func (h *standaloneHost) MetaUpdate(server, path string, size int64, mtime time.Time, sub sqlmini.XRM) (uint64, error) {
	h.state++
	id := h.state + 1_000_000
	if err := sub.PrepareXRM(id); err != nil {
		_ = sub.AbortXRM(id)
		return 0, err
	}
	if err := sub.CommitXRM(id); err != nil {
		return 0, err
	}
	return h.state, nil
}
func (h *standaloneHost) TxnOutcome(uint64) (bool, bool) { return true, true }
func (h *standaloneHost) StateID() uint64                { return h.state }

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7707", "listen address for the upcall service")
		name         = flag.String("name", "fs1", "file server name")
		key          = flag.String("key", "datalinks-shared-secret", "token key shared with the engine")
		selftest     = flag.Bool("selftest", false, "issue a token and validate it over TCP, then exit")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGINT/SIGTERM; exceeding it exits nonzero")
		maxConns     = flag.Int("max-conns", 0, "max concurrent upcall connections (0: default)")
		window       = flag.Int("window", 0, "max in-flight requests per connection (0: default)")
		maxInflight  = flag.Int("max-inflight", 0, "max in-flight requests across all connections (0: default)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "evict connections idle this long (0: never)")
		ioTimeout    = flag.Duration("io-timeout", 0, "per-frame read/write deadline (0: default)")
		obsAddr      = flag.String("obs-addr", "", "observability HTTP listen address (/metrics, /debug/traces, pprof); empty disables")
		slowOp       = flag.Duration("slow-op", 0, "log upcalls slower than this as slow_op JSON events to stderr (0: never)")
	)
	var seeds seedList
	flag.Var(&seeds, "seed", "seed file as path=content (repeatable)")
	flag.Parse()

	phys := fs.New()
	for _, s := range seeds {
		if err := phys.MkdirAll(parentDir(s.path), fs.Cred{UID: fs.Root}, 0o777); err != nil {
			fatal(err)
		}
		if err := phys.WriteFile(s.path, []byte(s.content)); err != nil {
			fatal(err)
		}
	}
	// One registry and one tracer shared by the DLFM and the upcall server,
	// so daemon counters and network counters expose through one /metrics
	// page and inbound trace contexts stitch into local traces.
	reg := metrics.NewRegistry()
	// Liveness series: a scrape of a freshly started (or idle) daemon is
	// still non-empty, so monitors can distinguish "up but quiet" from
	// "unreachable".
	reg.Counter("dlfmd.up").Inc()
	var tracer *obs.Tracer
	if *obsAddr != "" || *slowOp > 0 {
		tracer = obs.New(obs.Config{
			SlowOpThreshold: *slowOp,
			Log:             obs.NewLogger(os.Stderr, obs.LevelDebug),
		})
	}
	var err error
	if arch, err = archive.NewTiered(0, nil, archive.TierConfig{}); err != nil {
		fatal(err)
	}
	if repoDir, err = os.MkdirTemp("", "datalinks-repo-*"); err != nil {
		fatal(err)
	}
	if srv, _, err = dlfm.Open(dlfm.Config{
		Name:     *name,
		Phys:     phys,
		Archive:  arch,
		Host:     &standaloneHost{},
		TokenKey: []byte(*key),
		RepoDir:  repoDir,
		Metrics:  reg,
		Tracer:   tracer,
	}); err != nil {
		fatal(err)
	}
	server, bound, err := upcall.ServeConfig(srv, *addr, upcall.ServerConfig{
		MaxConns:     *maxConns,
		Window:       *window,
		MaxInflight:  *maxInflight,
		IdleTimeout:  *idleTimeout,
		FrameTimeout: *ioTimeout,
		WriteTimeout: *ioTimeout,
		Metrics:      reg,
		Tracer:       tracer,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dlfmd: %s serving upcalls on %s (%d files seeded)\n", *name, bound, len(seeds))

	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if err := http.Serve(ln, obs.Mux(reg, tracer)); err != nil {
				fmt.Fprintln(os.Stderr, "dlfmd: obs server:", err)
			}
		}()
		fmt.Printf("dlfmd: observability on http://%s (/metrics, /debug/traces, /debug/pprof)\n", ln.Addr())
	}

	if *selftest {
		client, err := upcall.Dial(bound)
		if err != nil {
			fatal(err)
		}
		path := "/selftest.txt"
		if err := phys.WriteFile(path, []byte("ok")); err != nil {
			fatal(err)
		}
		tok := srv.Authority().Issue(token.Read, path)
		resp, err := client.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: path, Token: tok, UID: 100})
		if err != nil || !resp.OK {
			fatal(fmt.Errorf("selftest validate failed: %+v %v", resp, err))
		}
		fmt.Println("dlfmd: selftest passed (token validated over TCP)")
		client.Close()
		server.Close()
		exit(0)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("dlfmd: %v received, draining (up to %v)\n", s, *drainTimeout)
	if err := server.Drain(*drainTimeout); err != nil {
		// In-flight work did not finish in time; connections were closed
		// hard. Report the dirty shutdown to the supervisor.
		fmt.Fprintln(os.Stderr, "dlfmd:", err)
		exit(2)
	}
	fmt.Println("dlfmd: drained cleanly")
	exit(0)
}

type seed struct{ path, content string }

type seedList []seed

func (s *seedList) String() string { return fmt.Sprintf("%d seeds", len(*s)) }
func (s *seedList) Set(v string) error {
	path, content, ok := strings.Cut(v, "=")
	if !ok || !strings.HasPrefix(path, "/") {
		return fmt.Errorf("seed must be /path=content, got %q", v)
	}
	*s = append(*s, seed{path: path, content: content})
	return nil
}

func parentDir(p string) string {
	i := strings.LastIndex(p, "/")
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// The daemon's stores and the repository's directory; every exit path goes
// through exit, which closes the stores and removes their directories.
var (
	arch    *archive.Store
	srv     *dlfm.Server
	repoDir string
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlfmd:", err)
	exit(1)
}

// exit closes the DLFM and the archive, removes the repository's directory,
// and exits with code — at least 1 when the repository log fails to close.
func exit(code int) {
	if srv != nil {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dlfmd: closing the repository:", err)
			code = max(code, 1)
		}
	}
	if arch != nil {
		arch.Close()
	}
	if repoDir != "" {
		os.RemoveAll(repoDir)
	}
	os.Exit(code)
}
