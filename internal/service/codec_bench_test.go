package service

import (
	"fmt"
	"runtime"
	"testing"

	"silica/internal/media"
)

// benchWorkerCounts compares the serial baseline against a mid-size
// pool and the full engine, so BENCH_codec.json tracks the scaling
// curve and not just its endpoints. Deduplicated and sorted, so a
// 4-core machine reports {1, 4} and a single core just {1}.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n > 4 {
			counts = append(counts, 4)
		}
		counts = append(counts, n)
	}
	return counts
}

// reportPerCore attaches the scaling metrics that BENCH_codec.json
// trend-tracks: the worker count as a numeric series and the
// throughput normalized per worker, so a run at GOMAXPROCS=8 and one
// at 4 are directly comparable.
func reportPerCore(b *testing.B, bytesPerOp int64, workers int) {
	elapsed := b.Elapsed().Seconds()
	if elapsed <= 0 || b.N == 0 {
		return
	}
	mbps := float64(bytesPerOp) * float64(b.N) / 1e6 / elapsed
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(mbps/float64(workers), "MB/s/core")
}

func benchService(b *testing.B, workers int) *Service {
	b.Helper()
	cfg := DefaultConfig()
	cfg.CodecWorkers = workers
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkBurnPlatter measures the full platter encode path (payload
// assembly excluded): within-track NC, LDPC, modulation, and media
// writes for every track of a platter.
func BenchmarkBurnPlatter(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := benchService(b, workers)
			geom := s.cfg.Geom
			fullGroups := geom.TracksPerPlatter / (geom.LargeGroupInfoTracks + geom.LargeGroupRedTracks)
			sectors := fullGroups * geom.LargeGroupInfoTracks * geom.InfoSectorsPerTrack
			payloads := make([][]byte, sectors)
			for i := range payloads {
				payloads[i] = randBytes(uint64(i), geom.SectorPayloadBytes)
			}
			b.ReportAllocs()
			b.SetBytes(int64(sectors) * int64(geom.SectorPayloadBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pi := &platterInfo{platter: media.NewPlatter(s.allocPlatterID(), geom), set: -1}
				if err := s.burnPlatter(pi, payloads); err != nil {
					b.Fatal(err)
				}
			}
			reportPerCore(b, int64(sectors)*int64(geom.SectorPayloadBytes), workers)
		})
	}
}

// BenchmarkFlushParallel measures the end-to-end flush: batching,
// platter assembly, burn, verify read-back, and set bookkeeping, with
// enough staged data to spread across several platters.
func BenchmarkFlushParallel(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const files, fileBytes = 4, 11000
			b.ReportAllocs()
			b.SetBytes(files * fileBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := benchService(b, workers)
				s.cfg.maxShardSectors = 8
				for f := 0; f < files; f++ {
					if _, err := s.Put("acct", fmt.Sprintf("bench-%d", f), randBytes(uint64(f), fileBytes)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			reportPerCore(b, files*fileBytes, workers)
		})
	}
}

// BenchmarkIngestRound measures the flush of one round of silica-bench's
// ingest workload (stageIngestRound: fixed bytes, 808 sectors): four
// information platters and one 4+2 set close per op, serial and at
// GOMAXPROCS. platters/op and decodes/op are the work the round
// was planned into; they repeat exactly from run to run.
func BenchmarkIngestRound(b *testing.B) {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := benchService(b, workers)
			b.ReportAllocs()
			b.SetBytes(roundUserBytes)
			decoded := s.om.codecDecSectors.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				stageIngestRound(s, i)
				b.StartTimer()
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			st := s.Stats()
			b.ReportMetric(float64(st.PlattersWritten+st.RedundancyPlatters)/float64(b.N), "platters/op")
			b.ReportMetric(float64(s.om.codecDecSectors.Value()-decoded)/float64(b.N), "decodes/op")
			reportPerCore(b, roundUserBytes, workers)
		})
	}
}
