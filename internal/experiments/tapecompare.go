package experiments

import (
	"silica/internal/controller"
	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/stats"
	"silica/internal/tape"
	"silica/internal/workload"
)

// TapeVsSilicaResult is the motivating comparison of §1–2: the same
// traces on a tape-library twin and the Silica twin. Cloud archival
// traffic (IOPS) is dominated by small reads, where tape pays
// minute-scale load/spool overheads per mount and serializes on robot
// arms; the classic disaster-recovery restore (few huge sequential
// reads) is what tape was built for and where its 6x streaming rate
// wins.
type TapeVsSilicaResult struct {
	IOPSTape     float64
	IOPSSilica   float64
	DRTape       float64
	DRSilica     float64
	TapeMountsIO int
}

// TapeVsSilica runs the IOPS trace and a disaster-recovery trace on
// both twins.
func TapeVsSilica(sc Scale) (TapeVsSilicaResult, error) {
	out := TapeVsSilicaResult{}

	// --- Cloud archival (IOPS) trace on both systems.
	tr, err := genTrace(workload.IOPS, sc, 0)
	if err != nil {
		return out, err
	}
	tcfg := tape.DefaultConfig()
	tcfg.Cartridges = sc.Platters
	tcfg.Seed = sc.Seed
	tl, err := tape.New(tcfg)
	if err != nil {
		return out, err
	}
	tapeReqs, tapeSample := tr.CoreRun()
	tl.RunTrace(tapeReqs, tr.CoreEnd)
	out.IOPSTape = tapeSample.P999()
	out.TapeMountsIO = tl.Mounts()

	lib, err := buildLibrary(library.PolicySilica, 20, 60, sc, true)
	if err != nil {
		return out, err
	}
	out.IOPSSilica = tailOf(runTrace(lib, tr))

	// --- Disaster recovery: a handful of very large restores. Tape
	// streams each from one cartridge; Silica reads the §6 shards in
	// parallel across platters.
	const files = 12
	fileBytes := int64(2e12) * int64(sc.TraceScale*4+1) / 4
	if fileBytes < 4e11 {
		fileBytes = 4e11
	}
	// Tape: one request per file.
	tl2, err := tape.New(tcfg)
	if err != nil {
		return out, err
	}
	drTape := stats.NewSample()
	var tapeDR []*controller.Request
	for i := 0; i < files; i++ {
		r := &controller.Request{
			ID: controller.RequestID(i + 1), Platter: media.PlatterID(i * 17 % tcfg.Cartridges),
			Bytes: fileBytes, Arrival: float64(i) * 30,
		}
		r.Done = func(t float64) { drTape.Add(t - r.Arrival) }
		tapeDR = append(tapeDR, r)
	}
	tl2.RunTrace(tapeDR, 0)
	out.DRTape = drTape.Max()

	// Silica: shard each file into 100-track (1 GB) reads on distinct
	// platters; a file completes at its last shard.
	lib2, err := buildLibrary(library.PolicySilica, 20, 60, sc, true)
	if err != nil {
		return out, err
	}
	drSilica := stats.NewSample()
	var silicaDR []*controller.Request
	var id controller.RequestID
	trackBytes := int64(10e6)
	shardTracks := 100
	for i := 0; i < files; i++ {
		arrival := float64(i) * 30
		shards := int((fileBytes + trackBytes*int64(shardTracks) - 1) / (trackBytes * int64(shardTracks)))
		remaining := shards
		for s := 0; s < shards; s++ {
			id++
			r := &controller.Request{
				ID:         id,
				Platter:    media.PlatterID((i*31 + s*7) % sc.Platters),
				TrackCount: shardTracks, Bytes: trackBytes * int64(shardTracks),
				Arrival: arrival,
				Done: func(t float64) {
					remaining--
					if remaining == 0 {
						drSilica.Add(t - arrival)
					}
				},
			}
			silicaDR = append(silicaDR, r)
		}
	}
	lib2.RunTrace(silicaDR, 0)
	out.DRSilica = drSilica.Max()
	return out, nil
}

func (r TapeVsSilicaResult) String() string {
	rows := [][]string{
		{"cloud archival (IOPS), p99.9", stats.FormatDuration(r.IOPSTape), stats.FormatDuration(r.IOPSSilica)},
		{"disaster recovery, slowest restore", stats.FormatDuration(r.DRTape), stats.FormatDuration(r.DRSilica)},
	}
	return "Tape vs Silica on the same traces (§1-2's motivating trade-off)\n" +
		table([]string{"scenario", "tape", "silica"}, rows)
}
