package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"datalinks/internal/archive"
	"datalinks/internal/extent"
)

// newArchive opens an archive store over a test directory, closed when the
// test ends.
func newArchive(t testing.TB) *archive.Store {
	t.Helper()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(arch.Close)
	return arch
}

// bytesOf materializes an archived version (a fresh copy), failing the test
// when it cannot — a version that does not materialize is never an empty one.
func bytesOf(t testing.TB, e archive.Entry) []byte {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Errorf("materialize %s v%d: %v", e.Path, e.Version, err)
		return nil
	}
	defer snap.Release()
	return snap.Bytes()
}

// restore installs archived version v as the file at path, deferred, as a
// rollback or a point-in-time restore does.
func restore(t *testing.T, f *FS, arch *archive.Store, path string, v archive.Version) {
	t.Helper()
	e, err := arch.Get("fs1", path, v)
	if err != nil {
		t.Fatal(err)
	}
	held, err := e.Hold()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFileDeferred(path, held); err != nil {
		t.Fatal(err)
	}
}

// TestFSArchiveEquivalenceProperty drives random write/truncate/archive/
// restore sequences through the chunked stack (fs inode content -> archive
// manifests -> deferred restore) and through a flat byte-slice model,
// asserting byte-for-byte equivalence after every operation. This is the
// end-to-end guarantee the extent refactor must preserve: chunking, COW,
// dedup and deferred installs are invisible to content readers.
func TestFSArchiveEquivalenceProperty(t *testing.T) {
	const C = extent.ChunkSize
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 8; round++ {
		f := New()
		arch := newArchive(t)
		path := "/f.bin"
		n, err := f.Create(path, Cred{UID: Root}, 0o644)
		if err != nil {
			t.Fatal(err)
		}

		var model []byte
		var versions [][]byte // model content per archived version
		check := func(step string) {
			t.Helper()
			got, err := f.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model) {
				t.Fatalf("round %d %s: content diverged (len %d vs %d)", round, step, len(got), len(model))
			}
		}

		for op := 0; op < 150; op++ {
			switch rng.Intn(10) {
			case 0, 1: // truncate
				size := int64(rng.Intn(3 * C))
				if err := f.Truncate(n, size); err != nil {
					t.Fatal(err)
				}
				if size <= int64(len(model)) {
					model = model[:size]
				} else {
					grown := make([]byte, size)
					copy(grown, model)
					model = grown
				}
			case 2: // archive the current content as a new version
				snap, err := f.CaptureFile(path)
				if err != nil {
					t.Fatal(err)
				}
				_, err = arch.PutSnapshot("fs1", path, archive.Version(len(versions)), uint64(len(versions)+1), snap)
				snap.Release()
				if err != nil {
					t.Fatal(err)
				}
				versions = append(versions, append([]byte(nil), model...))
			case 3: // restore a random archived version, deferred
				if len(versions) > 0 {
					v := rng.Intn(len(versions))
					restore(t, f, arch, path, archive.Version(v))
					model = append(model[:0:0], versions[v]...)
				}
			default: // write
				off := int64(rng.Intn(2 * C))
				p := make([]byte, rng.Intn(C+C/2))
				rng.Read(p)
				if _, err := f.WriteAt(n, off, p); err != nil {
					t.Fatal(err)
				}
				end := off + int64(len(p))
				if end > int64(len(model)) {
					grown := make([]byte, end)
					copy(grown, model)
					model = grown
				}
				copy(model[off:], p)
			}
			check(fmt.Sprintf("op %d", op))
			// Archived versions must stay frozen under all later churn.
			if op%25 == 24 && len(versions) > 0 {
				v := rng.Intn(len(versions))
				e, err := arch.Get("fs1", path, archive.Version(v))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bytesOf(t, e), versions[v]) {
					t.Fatalf("round %d: archived v%d mutated by later churn", round, v)
				}
			}
		}
	}
}

// TestChunkRefcountLeak: unlink + restore churn must end with zero orphaned
// chunks — every COW, snapshot, archive put, restore, truncate-after, drop
// and remove pairs its retains with releases.
func TestChunkRefcountLeak(t *testing.T) {
	baseChunks, baseBytes := extent.Live()
	f := New()
	arch := newArchive(t)
	rng := rand.New(rand.NewSource(11))

	const files = 4
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/f%d.bin", i)
		n, err := f.Create(path, Cred{UID: Root}, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		content := make([]byte, 5*extent.ChunkSize+123)
		rng.Read(content)
		if _, err := f.WriteAt(n, 0, content); err != nil {
			t.Fatal(err)
		}
		// Version churn: edit, archive, occasionally restore an old version.
		for v := 0; v < 8; v++ {
			edit := make([]byte, 1000)
			rng.Read(edit)
			if _, err := f.WriteAt(n, int64(rng.Intn(5*extent.ChunkSize)), edit); err != nil {
				t.Fatal(err)
			}
			snap, err := f.CaptureFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = arch.PutSnapshot("fs1", path, archive.Version(v), uint64(v+1), snap)
			snap.Release()
			if err != nil {
				t.Fatal(err)
			}
			if v%3 == 2 {
				restore(t, f, arch, path, archive.Version(rng.Intn(v+1)))
			}
		}
	}
	// Point-in-time truncate drops the newer versions of every file.
	for i := 0; i < files; i++ {
		arch.TruncateAfter("fs1", fmt.Sprintf("/f%d.bin", i), 4)
	}
	// Unlink everything: files from the namespace, versions from the archive.
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/f%d.bin", i)
		arch.Drop("fs1", path)
		if err := f.Remove(path, Cred{UID: Root}); err != nil {
			t.Fatal(err)
		}
	}
	endChunks, endBytes := extent.Live()
	if endChunks != baseChunks || endBytes != baseBytes {
		t.Fatalf("orphaned chunks: %d chunks / %d bytes still live",
			endChunks-baseChunks, endBytes-baseBytes)
	}
}
