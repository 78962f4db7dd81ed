package archive

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"datalinks/internal/extent"
)

// TestCompactRacesEveryIndexChange: catalog checkpoints, written from the
// index, interleave with concurrent puts, imports, truncates and drops over
// two histories in every shard; after a crash, the store reopened over the
// directory serves every history exactly as the index held it — the same
// versions by identity, the same bytes.
func TestCompactRacesEveryIndexChange(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.compactAt = 1 << 10 // a checkpoint every few records
	src := newTiered(t)   // where an imported history is archived first

	var paths []string
	perShard := map[*entryShard]int{}
	for i := 0; len(paths) < 2*shardCount; i++ {
		p := fmt.Sprintf("/h%d", i)
		if sh := s.shardFor(key("fs1", p)); perShard[sh] < 2 {
			perShard[sh]++
			paths = append(paths, p)
		}
	}

	// Every fall of the log's length is a checkpoint.
	var compactions int
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for last := s.cat.LogSize(); ; runtime.Gosched() {
			select {
			case <-stop:
				return
			default:
			}
			n := s.cat.LogSize()
			if n < last {
				compactions++
			}
			last = n
		}
	}()

	var state atomic.Uint64
	var puts, imports, truncates, drops atomic.Int64
	// write archives the next version of p: straight into s, or (odd paths)
	// into src and then shipped to s as ImportDelta, starting over from the
	// whole history when s's copy no longer lines up.
	write := func(rng *rand.Rand, i int) error {
		p := paths[i]
		content := make([]byte, 1+rng.Intn(extent.ChunkSize+extent.ChunkSize/4))
		rng.Read(content)
		if i%2 == 0 {
			id, _ := s.Newest("fs1", p)
			puts.Add(1)
			return s.Put("fs1", p, id.Version+1, state.Add(1), content)
		}
		id, _ := src.Newest("fs1", p)
		if err := src.Put("fs1", p, id.Version+1, state.Add(1), content); err != nil {
			return err
		}
		base, _ := s.Newest("fs1", p)
		recs, err := src.ExportDelta("fs1", p, base)
		if errors.Is(err, ErrChainGap) {
			if err := s.Drop("fs1", p); err != nil {
				return err
			}
			recs, err = src.ExportDelta("fs1", p, VersionID{Version: -1})
		}
		if err != nil {
			return err
		}
		imports.Add(1)
		_, err = s.ImportDelta("fs1", p, recs, src.FetchBlob)
		return err
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 100; op++ {
				i := w + workers*rng.Intn(len(paths)/workers) // each path has one writer
				var err error
				switch r := rng.Intn(10); {
				case r < 7:
					err = write(rng, i)
				case r < 9:
					if vs := s.Versions("fs1", paths[i]); len(vs) > 0 {
						truncates.Add(1)
						err = s.TruncateAfter("fs1", paths[i], vs[rng.Intn(len(vs))].StateID)
					}
				default:
					drops.Add(1)
					err = s.Drop("fs1", paths[i])
				}
				if err != nil {
					t.Errorf("worker %d op %d on %s: %v", w, op, paths[i], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-polled
	if t.Failed() {
		s.Crash()
		return
	}
	if compactions < 5 || puts.Load() == 0 || imports.Load() == 0 || truncates.Load() == 0 || drops.Load() == 0 {
		t.Fatalf("%d checkpoints over %d puts, %d imports, %d truncates, %d drops: want 5 and some of each",
			compactions, puts.Load(), imports.Load(), truncates.Load(), drops.Load())
	}

	view := func(s *Store) map[string][]entryMeta {
		v := map[string][]entryMeta{}
		for _, p := range paths {
			for _, e := range s.Versions("fs1", p) {
				v[p] = append(v[p], metaOf(t, e))
			}
		}
		return v
	}
	want := view(s)
	s.Crash()
	s2, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := view(s2)
	for _, p := range paths {
		if !reflect.DeepEqual(got[p], want[p]) {
			t.Errorf("%s after the reopen:\n got %v\nwant %v", p, got[p], want[p])
		}
	}
	t.Logf("%d checkpoints over %d puts, %d imports, %d truncates, %d drops", compactions, puts.Load(), imports.Load(), truncates.Load(), drops.Load())
}
