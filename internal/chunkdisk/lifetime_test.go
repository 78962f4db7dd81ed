package chunkdisk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"datalinks/internal/extent"
)

// modelBlob is what the model knows of one hash: the bytes, how many
// references the schedule holds, and whether the store holds the bytes —
// referenced, or dead and awaiting a sweep.
type modelBlob struct {
	data []byte
	h    extent.Hash
	refs int
	held bool
}

// TestLifetimeModel drives seeded schedules of Put / Ref / Release / Get /
// Sweep (which compacts) / reopen against a model of the protocol: whatever
// holds a reference is readable with the right bytes after any sweep, nothing
// without one survives a sweep, and a reopen starts every blob dead until it
// is Ref'd.
func TestLifetimeModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runSchedule(t, seed, t.TempDir())
	}
}

func runSchedule(t *testing.T, seed int64, dir string) {
	rng := rand.New(rand.NewSource(seed))
	// Small packs that compact early and blobs from 100 B to 1.4 KiB.
	cfg := Config{Dir: dir, PackTargetBytes: 4 << 10, packGarbageRatio: 0.3}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	blobs := make([]modelBlob, 16)
	for i := range blobs {
		blobs[i].data, blobs[i].h = blob(int(seed)*100+i, 100+rng.Intn(1300))
	}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	readable := func(step int, b *modelBlob) {
		t.Helper()
		c, err := s.Get(b.h)
		if err != nil {
			fail(step, "held blob unreadable: %v", err)
		}
		if !bytes.Equal(c.Data(), b.data) {
			fail(step, "held blob serves other bytes")
		}
		c.ReleaseChunk()
	}
	for step := 0; step < 120; step++ {
		b := &blobs[rng.Intn(len(blobs))]
		switch op := rng.Intn(20); {
		case op < 6:
			c := extent.WrapChunk(append([]byte(nil), b.data...), b.h)
			wrote, err := s.Put(b.h, c)
			c.ReleaseChunk()
			if err != nil {
				fail(step, "put: %v", err)
			}
			if wrote == b.held {
				fail(step, "put wrote=%v of a blob the store held=%v", wrote, b.held)
			}
			b.refs, b.held = b.refs+1, true
		case op < 9:
			if got := s.Ref(b.h); got != b.held {
				fail(step, "ref = %v of a blob the store held=%v", got, b.held)
			}
			if b.held {
				b.refs++
			}
		case op < 14:
			if b.refs == 0 {
				continue // only what was taken is given back
			}
			s.Release(b.h)
			b.refs--
		case op < 17:
			// Dead but unswept still reads (a transfer's source side holds
			// no reference of its own).
			if b.held {
				readable(step, b)
			}
		case op < 19:
			dead := 0
			for i := range blobs {
				if blobs[i].held && blobs[i].refs == 0 {
					blobs[i].held = false
					dead++
				}
			}
			if freed := s.Sweep(); freed != dead {
				fail(step, "sweep freed %d, want %d", freed, dead)
			}
			for i := range blobs {
				if b := &blobs[i]; b.refs > 0 {
					readable(step, b)
				} else if c, err := s.Get(b.h); err == nil {
					c.ReleaseChunk()
					fail(step, "unreferenced blob %d survived the sweep", i)
				}
			}
		default:
			if rng.Intn(2) == 0 {
				s.Crash()
			} else if err := s.Close(); err != nil {
				fail(step, "close: %v", err)
			}
			if s, err = Open(cfg); err != nil {
				fail(step, "reopen: %v", err)
			}
			if st := s.Stats(); st.DeadBlobs != st.DiskBlobs {
				fail(step, "reopened store holds live blobs: %+v", st)
			}
			// Counts are volatile, and a swept pack record comes back with
			// its uncompacted pack: ask the store what it adopted.
			for i := range blobs {
				b := &blobs[i]
				adopted := s.Ref(b.h)
				if b.held && !adopted {
					fail(step, "blob %d lost across the reopen", i)
				}
				if adopted {
					readable(step, b)
					s.Release(b.h)
				}
				b.refs, b.held = 0, adopted
			}
		}
	}
	for i := range blobs {
		for ; blobs[i].refs > 0; blobs[i].refs-- {
			s.Release(blobs[i].h)
		}
	}
	s.Sweep()
	if st := s.Stats(); st.DiskBlobs != 0 || st.DeadBlobs != 0 {
		t.Fatalf("seed %d: store not empty once nothing is referenced: %+v", seed, st)
	}
}

// TestPutWaitsForAWriteInFlight: a second Put of a hash whose first write has
// not been published yet waits for the outcome — it shares the bytes when the
// write lands, and stores them itself when it fails.
func TestPutWaitsForAWriteInFlight(t *testing.T) {
	for _, firstFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("firstFails=%v", firstFails), func(t *testing.T) {
			s, err := Open(Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var appends atomic.Int32
			parked, resume := make(chan struct{}), make(chan error)
			s.afterPackAppend = func() error {
				if appends.Add(1) > 1 {
					return nil
				}
				close(parked)
				return <-resume
			}
			data, h := blob(1, 512)
			type result struct {
				wrote bool
				err   error
			}
			puts := [2]chan result{make(chan result, 1), make(chan result, 1)}
			start := func(i int) {
				go func() {
					c := extent.WrapChunk(append([]byte(nil), data...), h)
					wrote, err := s.Put(h, c)
					c.ReleaseChunk()
					puts[i] <- result{wrote, err}
				}()
			}
			start(0)
			<-parked
			start(1)
			select {
			case r := <-puts[1]:
				t.Fatalf("second put returned %+v with the first write still in flight", r)
			case <-time.After(20 * time.Millisecond):
			}
			injected := errors.New("injected write failure")
			if !firstFails {
				injected = nil
			}
			resume <- injected
			first, second := <-puts[0], <-puts[1]
			if first.err != injected || first.wrote != !firstFails {
				t.Fatalf("first put = %+v", first)
			}
			if second.err != nil || second.wrote != firstFails {
				t.Fatalf("second put = %+v, want wrote=%v", second, firstFails)
			}
			if got := get(t, s, h); !bytes.Equal(got, data) {
				t.Fatal("blob diverged")
			}
			// One copy on the device, and exactly as many references as Puts
			// that succeeded.
			refs := 2
			if firstFails {
				refs = 1
			}
			for i := 0; i < refs; i++ {
				if st := s.Stats(); st.Spills != 1 || st.DeadBlobs != 0 {
					t.Fatalf("after %d releases: %+v", i, st)
				}
				s.Release(h)
			}
			if st := s.Stats(); st.DeadBlobs != 1 {
				t.Fatalf("released blob not dead: %+v", st)
			}
		})
	}
}
