package core

import (
	"fmt"
	"testing"
	"time"

	"datalinks/internal/fs"
	"datalinks/internal/retry"
	"datalinks/internal/upcall"
)

// A full linked-file update lifecycle must survive an unreliable DLFS↔DLFM
// network: the resilient client absorbs injected drops and resets, and every
// committed update lands.
func TestChaosTCPLifecycle(t *testing.T) {
	// Drops and delays only: a dropped request never reaches the daemon, so
	// the retry is exactly-once from DLFM's point of view. A reset can land
	// after the daemon applied the op (lost-ack), and DLFM's close/open ops
	// are not idempotent — that at-least-once edge is exercised by the
	// upcall-level soak instead.
	ch := &upcall.Chaos{
		Seed:      1,
		DropProb:  0.12,
		DelayDist: upcall.Delay{Prob: 0.2, Min: 100 * time.Microsecond, Max: time.Millisecond},
	}
	sys, err := NewSystem(Config{
		Servers: []ServerConfig{{
			Name:       "fs1",
			TCPUpcalls: true,
			OpenWait:   time.Second,
			UpcallNet: &upcall.NetConfig{Client: upcall.ClientConfig{
				AttemptTimeout: 80 * time.Millisecond,
				OpTimeout:      10 * time.Second,
				Retry:          retry.Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
				DisableBreaker: true,
				Chaos:          ch,
			}},
		}},
		LockTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("new chaos system: %v", err)
	}
	defer sys.Close()
	srv, _ := sys.Server("fs1")
	if err := srv.Phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := srv.Phys.WriteFile("/d/f.bin", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	ino, _ := srv.Phys.Lookup("/d/f.bin")
	srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
	srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)

	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	if _, err := sys.DB().Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), NULL)`); err != nil {
		t.Fatalf("link: %v", err)
	}
	sess := sys.NewSession(alice)
	const rounds = 8
	for i := 1; i <= rounds; i++ {
		row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
		if err != nil {
			t.Fatalf("round %d token: %v", i, err)
		}
		w, err := sess.OpenWrite(row[0].S)
		if err != nil {
			t.Fatalf("round %d open under chaos: %v", i, err)
		}
		if err := w.WriteAll([]byte(fmt.Sprintf("v%d under chaos", i))); err != nil {
			t.Fatalf("round %d write: %v", i, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("round %d commit under chaos: %v", i, err)
		}
	}
	data, _ := srv.Phys.ReadFile("/d/f.bin")
	if want := fmt.Sprintf("v%d under chaos", rounds); string(data) != want {
		t.Fatalf("final content = %q, want %q", data, want)
	}
	mrow, err := sys.DB().QueryRow(`SELECT doc_size FROM t WHERE id = 1`)
	if err != nil || mrow[0].I != int64(len(fmt.Sprintf("v%d under chaos", rounds))) {
		t.Fatalf("metadata = %v, %v", mrow, err)
	}

	if st := ch.Stats(); st.Drops == 0 {
		t.Fatalf("chaos injected nothing: %+v", st)
	}
	// The shared upcall registry surfaces the client's resilience counters.
	if srv.UpcallClient() == nil || srv.UpcallServer() == nil {
		t.Fatal("TCP plane accessors returned nil")
	}
	if srv.Transport.Metrics().Counter("upcall.retries").Value() == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
}

// A Chaos injector faults the upcall wire, so a server without TCPUpcalls
// refuses one instead of ignoring it.
func TestChaosWithoutTCPUpcallsIsRefused(t *testing.T) {
	sys, err := NewSystem(Config{Servers: []ServerConfig{{
		Name:      "fs1",
		UpcallNet: &upcall.NetConfig{Client: upcall.ClientConfig{Chaos: &upcall.Chaos{DropProb: 1}}},
	}}})
	if err == nil {
		sys.Close()
		t.Fatal("a Chaos injector without TCPUpcalls was accepted")
	}
}
