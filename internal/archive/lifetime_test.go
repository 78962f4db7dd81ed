package archive

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"datalinks/internal/extent"
)

// tiers runs fn against a memory-only and a durable store.
func tiers(t *testing.T, fn func(t *testing.T, s *Store)) {
	for _, tier := range []string{"memory", "durable"} {
		t.Run(tier, func(t *testing.T) {
			var cfg TierConfig
			if tier == "durable" {
				cfg.Dir = t.TempDir()
			}
			s, err := NewTiered(0, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fn(t, s)
		})
	}
}

// TestReleaseToZeroNeverStrandsAClaimer: one writer keeps losing Puts of a
// content to ErrStale — interning it and giving it straight back, so its count
// keeps crossing zero — while two others archive the very same content under
// fresh paths. A version that was acknowledged must materialize, whatever the
// release did in between, sweeps included.
func TestReleaseToZeroNeverStrandsAClaimer(t *testing.T) {
	tiers(t, func(t *testing.T, s *Store) {
		content := []byte("38 bytes every writer archives at once")
		if err := s.Put("fs1", "/stale", 1, 1, []byte("something newer")); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var loser, writers sync.WaitGroup
		loser.Add(1)
		go func() {
			defer loser.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put("fs1", "/stale", 0, 0, content); !errors.Is(err, ErrStale) {
					t.Errorf("put below the archived version: %v, want ErrStale", err)
					return
				}
			}
		}()
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for round := 0; round < 1500; round++ {
					p := fmt.Sprintf("/w%d/%d", w, round)
					if err := s.Put("fs1", p, 0, 1, content); err != nil {
						t.Errorf("round %d: put %s: %v", round, p, err)
						return
					}
					if round%2 == w {
						s.GCNow()
					}
					e, err := s.Latest("fs1", p)
					if err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
					snap, err := e.Snapshot()
					if err != nil {
						t.Errorf("round %d: %s is archived and cannot be served: %v", round, p, err)
						return
					}
					if !bytes.Equal(snap.Bytes(), content) {
						t.Errorf("round %d: %s serves other bytes", round, p)
					}
					snap.Release()
					if err := s.Drop("fs1", p); err != nil {
						t.Errorf("round %d: drop %s: %v", round, p, err)
						return
					}
				}
			}(w)
		}
		writers.Wait()
		close(stop)
		loser.Wait()
		if got := pinnedBlobs(s); got != 1 {
			t.Errorf("%d blobs still referenced, want only /stale's", got)
		}
	})
}

// TestTwoWritersOneVersion races the two ways a version reaches a replica —
// the synchronous ship's PutSnapshot and a catch-up's ImportDelta — for the
// same version of one path, in both starting orders: exactly one wins, the
// other is ErrStale, everything archived materializes and the loser's
// references are all given back.
func TestTwoWritersOneVersion(t *testing.T) {
	tiers(t, func(t *testing.T, s *Store) {
		src := New(0, nil)
		defer src.Close()
		base := bytes.Repeat([]byte{7}, extent.ChunkSize)
		const rounds = 200
		want := make([][]byte, rounds)
		for v := range want {
			want[v] = append(append([]byte(nil), base...), fmt.Sprintf("tail of version %d", v)...)
			if err := src.Put("auth", "/f", Version(v), uint64(v), want[v]); err != nil {
				t.Fatal(err)
			}
		}
		for v := 0; v < rounds; v++ {
			recs, err := src.ExportDelta("auth", "/f", int64(v)-1)
			if err != nil {
				t.Fatal(err)
			}
			put := func() error { return s.Put("auth", "/f", Version(v), uint64(v), want[v]) }
			imp := func() error {
				_, err := s.ImportDelta("auth", "/f", recs[:1], src.FetchBlob)
				return err
			}
			first, second := put, imp
			if v%2 == 1 {
				first, second = imp, put
			}
			errs := make(chan error, 1)
			go func() { errs <- second() }()
			e1, e2 := first(), <-errs
			// One wins and the loser is ErrStale — or nil, for an import that
			// arrives after the put and skips what it finds archived.
			for _, err := range []error{e1, e2} {
				if err != nil && !errors.Is(err, ErrStale) {
					t.Fatalf("version %d: %v, want a winner and ErrStale", v, err)
				}
			}
			if e1 != nil && e2 != nil {
				t.Fatalf("version %d: both writers lost: %v, %v", v, e1, e2)
			}
		}
		vs := s.Versions("auth", "/f")
		if len(vs) != rounds {
			t.Fatalf("%d versions archived, want %d", len(vs), rounds)
		}
		for v, e := range vs {
			if got := bytesOf(t, e); !bytes.Equal(got, want[v]) {
				t.Fatalf("version %d diverged", v)
			}
		}
		// One shared chunk and one tail per version: nothing the losers took
		// is still held.
		if got := pinnedBlobs(s); got != rounds+1 {
			t.Errorf("%d blobs referenced, want %d", got, rounds+1)
		}
		if err := s.Drop("auth", "/f"); err != nil {
			t.Fatal(err)
		}
		if got := pinnedBlobs(s); got != 0 {
			t.Errorf("%d blobs referenced after the drop", got)
		}
	})
}
