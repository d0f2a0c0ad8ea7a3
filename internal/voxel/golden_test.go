package voxel

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"silica/internal/ldpc"
	"silica/internal/sim"
)

// The golden sector corpus pins what a sector read *is*: the channel
// simulator's draw stream and every decode outcome that the layers above
// read (OK, FailedBlock, Iterations, Margin, payload). The demapper and
// the BP kernel may be reimplemented freely underneath it; regenerating
// the file (-update-golden) is a behaviour change and must be called out
// as one. A new draw stream must first pass TestChannelMatchesModel,
// which pins the distribution the stream is drawn from.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/voxel/testdata from the current read path")

const (
	goldenPayloads = 8
	goldenReads    = 64
)

// servicePipeline is the sector shape internal/service runs with seed 1:
// a (512, 384) code over 1000-byte sectors.
func servicePipeline(t testing.TB, ch Channel) *SectorPipeline {
	t.Helper()
	code, err := ldpc.NewCode(512, 384, 1^0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ldpc.NewSectorCodec(code, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return NewSectorPipeline(sc, ch)
}

func randomPayload(n int, seed uint64) []byte {
	rng := sim.NewRNG(seed)
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	return payload
}

// hashPoints folds the exact bit patterns of the received observations,
// so any change to TransmitInto's draw order or arithmetic shows.
func hashPoints(points []Point) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, p := range points {
		a, r := math.Float64bits(p.A), math.Float64bits(p.R)
		for i := 0; i < 8; i++ {
			b[i] = byte(a >> (8 * i))
			b[8+i] = byte(r >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenCorpora are the pinned read paths. sector_golden.txt is the
// service's code at the operating point. The two other channel points
// take it where no read fails (σ 0.10) and where most blocks need BP,
// voxels go missing and four reads in five fail (σ 0.20, PMissing 1e-3).
// The two other codes have K%64 ≠ 0 and data positions in more than one
// run, so no block boundary, message run or parity run is word-aligned.
var goldenCorpora = []struct {
	file string
	n, k int
	ch   func() Channel
}{
	{"sector_golden.txt", 512, 384, DefaultChannel},
	{"sector_golden_sigma010.txt", 512, 384, func() Channel { ch := DefaultChannel(); ch.Sigma = 0.10; return ch }},
	{"sector_golden_sigma020_missing.txt", 512, 384, func() Channel {
		ch := DefaultChannel()
		ch.Sigma, ch.PMissing = 0.20, 1e-3
		return ch
	}},
	{"sector_golden_n200_k137.txt", 200, 137, DefaultChannel},
	{"sector_golden_n330_k251.txt", 330, 251, DefaultChannel},
}

func TestGoldenSectorCorpus(t *testing.T) {
	for _, corpus := range goldenCorpora {
		t.Run(corpus.file, func(t *testing.T) {
			code, err := ldpc.NewCode(corpus.n, corpus.k, 1^0xbeef)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := ldpc.NewSectorCodec(code, 1000)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenCorpus(t, NewSectorPipeline(sc, corpus.ch()), corpus.file)
		})
	}
}

// checkGoldenCorpus reads goldenPayloads seeded payloads goldenReads
// times each through p and compares every outcome with testdata/file.
func checkGoldenCorpus(t *testing.T, p *SectorPipeline, file string) {
	sc := p.AcquireScratch()
	defer p.ReleaseScratch(sc)
	buf := make([]byte, p.Codec.PayloadBytes)
	var got bytes.Buffer
	fmt.Fprintln(&got, "# payload read points_fnv64a ok failed_block iterations margin payload_crc32")
	for pi := 0; pi < goldenPayloads; pi++ {
		payload := randomPayload(p.Codec.PayloadBytes, 0x51ca+uint64(pi))
		sector := p.WriteSector(payload)
		rng := sim.NewRNG(0x90de + uint64(pi))
		for ri := 0; ri < goldenReads; ri++ {
			res := p.ReadSectorWithBuf(sc, sector, rng, buf)
			if res.OK && !bytes.Equal(res.Payload, payload) {
				t.Fatalf("payload %d read %d: CRC-verified decode returned wrong bytes", pi, ri)
			}
			fmt.Fprintf(&got, "%d %d %016x %t %d %d %v %08x\n", pi, ri,
				hashPoints(sc.points[:p.symbols()]), res.OK, res.FailedBlock,
				res.Iterations, res.Margin, crc32.ChecksumIEEE(res.Payload))
		}
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got  %s\n want %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, want %d", file, len(gl), len(wl))
}

// TestExactLLRsSeparable pins the property a per-axis demapper relies
// on: with a Gray 4×4 grid and isotropic noise, bits 0–1 of a voxel
// depend only on A, bits 2–3 only on R, and both axes go through the
// same pair of scalar functions. A constellation or noise model that
// breaks this must fail here, not decode through a wrong table.
func TestExactLLRsSeparable(t *testing.T) {
	const tol = 1e-9
	d := NewDemapper(NewModulation(), DefaultChannel())
	exact := func(a, r float64) []float64 { return BitLLRs(d.Posteriors([]Point{{A: a, R: r}})) }
	rng := sim.NewRNG(11)
	for i := 0; i < 2000; i++ {
		a, r, other := rng.Range(-1.6, 1.6), rng.Range(-1.6, 1.6), rng.Range(-1.6, 1.6)
		base := exact(a, r)
		movedR := exact(a, other)
		movedA := exact(other, r)
		swapped := exact(r, a)
		for b := 0; b < 2; b++ {
			if math.Abs(base[b]-movedR[b]) > tol {
				t.Fatalf("bit %d at A=%v depends on R: %v (R=%v) vs %v (R=%v)", b, a, base[b], r, movedR[b], other)
			}
			if math.Abs(base[2+b]-movedA[2+b]) > tol {
				t.Fatalf("bit %d at R=%v depends on A: %v (A=%v) vs %v (A=%v)", 2+b, r, base[2+b], a, movedA[2+b], other)
			}
			if math.Abs(base[b]-swapped[2+b]) > tol || math.Abs(base[2+b]-swapped[b]) > tol {
				t.Fatalf("axis functions differ at (%v, %v): %v vs swapped %v", a, r, base, swapped)
			}
		}
	}
}
