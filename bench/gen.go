package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"datalinks/internal/extent"
	"datalinks/internal/workload"
)

// The generator side of the benchmark: everything the program under test
// sees — file contents, which file an operation picks, offsets, payloads —
// derives from -seed here, and nothing else does.

// blockSize is the unit of the self-checking content layout: the last 8
// bytes of every 4 KiB block hold a checksum of the rest, so a reader that
// has no shadow copy at hand (mixed_coexist reads race the committer) can
// still tell a served block from garbage.
const blockSize = 4 << 10

func blockSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// sealBlocks stamps every whole block of p.
func sealBlocks(p []byte) {
	for off := 0; off+blockSize <= len(p); off += blockSize {
		b := p[off : off+blockSize]
		binary.LittleEndian.PutUint64(b[blockSize-8:], blockSum(b[:blockSize-8]))
	}
}

func blockOK(b []byte) bool {
	return len(b) == blockSize && binary.LittleEndian.Uint64(b[blockSize-8:]) == blockSum(b[:blockSize-8])
}

// subSeed derives an independent stream seed from the run seed and a label.
func subSeed(seed int64, label string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, n)
	return int64(h.Sum64() >> 1)
}

// fileContent is file id's seed content: random (identical files would
// dedupe to one chunk set and hide the population) and sealed.
func fileContent(seed int64, id, size int) []byte {
	p := make([]byte, size)
	workload.RNG(subSeed(seed, "file", id)).Read(p)
	sealBlocks(p)
	return p
}

// opGen is one client's operation stream.
type opGen struct {
	rng  *rand.Rand
	zipf *workload.Zipf // nil: uniform choice
	ids  []int          // the files this client may pick, hottest first under zipf
}

func newOpGen(seed int64, workloadName string, client int, ids []int, zipfian bool) *opGen {
	g := &opGen{rng: workload.RNG(subSeed(seed, workloadName, client))}
	g.ids = append([]int(nil), ids...)
	if zipfian {
		// Which files are hot depends on the seed, not on their ids.
		workload.RNG(subSeed(seed, workloadName+"/hot", 0)).Shuffle(len(g.ids), func(i, j int) {
			g.ids[i], g.ids[j] = g.ids[j], g.ids[i]
		})
		g.zipf = workload.NewZipf(g.rng, len(g.ids))
	}
	return g
}

func (g *opGen) nextFile() int {
	if g.zipf != nil {
		return g.ids[g.zipf.Next()]
	}
	return g.ids[g.rng.Intn(len(g.ids))]
}

// nextOffset picks an io-aligned offset inside a file of fileSize bytes.
func (g *opGen) nextOffset(fileSize, io int) int64 {
	return int64(g.rng.Intn(fileSize/io)) * int64(io)
}

// fill writes the next random payload into p, sealed when p is whole blocks.
func (g *opGen) fill(p []byte) {
	g.rng.Read(p)
	if len(p)%blockSize == 0 {
		sealBlocks(p)
	}
}

// stampIngest makes an ingest payload unique per operation at almost no
// cost: the client's fixed random base block with the operation number
// written at the head of each 64 KiB chunk, so no two chunks ever dedupe and
// the expected stream can be rebuilt for verification.
func stampIngest(base []byte, op uint64) {
	for off := 0; off+8 <= len(base); off += extent.ChunkSize {
		binary.LittleEndian.PutUint64(base[off:], op)
	}
}
