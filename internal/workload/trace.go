package workload

import (
	"fmt"
	"sort"

	"silica/internal/controller"
	"silica/internal/media"
	"silica/internal/sim"
	"silica/internal/stats"
)

// Profile selects one of the paper's three 12-hour evaluation
// intervals (§7.2): Typical, IOPS (≈10x more reads per byte than
// Typical), and Volume (≈25x the bytes in only ≈5x the reads).
type Profile int

const (
	Typical Profile = iota
	IOPS
	Volume
)

func (p Profile) String() string {
	switch p {
	case Typical:
		return "typical"
	case IOPS:
		return "iops"
	case Volume:
		return "volume"
	default:
		return fmt.Sprintf("profile(%d)", int(p))
	}
}

// TraceConfig parameterizes trace generation against a library.
type TraceConfig struct {
	Profile  Profile
	Duration float64 // core interval length, seconds (paper: 12 h)
	// Warmup and Cooldown extend the trace around the core interval;
	// only core-interval requests should be measured (§7.2).
	Warmup, Cooldown float64

	// Library shape the requests address.
	Platters       int
	TracksPerFile  func(bytes int64) int // conversion via platter geometry
	TrackBytes     int64
	MaxShardTracks int // large files shard across platters (§6)

	// ZipfSkew > 0 applies the §7.5 skewed request placement;
	// 0 distributes requests uniformly across platters.
	ZipfSkew float64

	// RateScale multiplies the profile's base request count (1 = the
	// calibrated default).
	RateScale float64

	Seed uint64
}

// profileShape fixes request count and byte volume of each profile for
// a 12-hour core interval, preserving the paper's stated ratios:
// Typical = 5000 reads / ~490 GB; IOPS = 5x reads at 0.5x bytes (10x
// reads-per-byte); Volume = 5x reads at 25x bytes.
func profileShape(p Profile) (requests int, bytesTarget float64) {
	const typicalReads = 5000
	const typicalBytes = 1.0e12
	switch p {
	case IOPS:
		return typicalReads * 5, typicalBytes * 0.5
	case Volume:
		return typicalReads * 5, typicalBytes * 25
	default:
		return typicalReads, typicalBytes
	}
}

// Trace is a generated request sequence plus the measurement window.
type Trace struct {
	Requests  []*controller.Request
	CoreStart float64
	CoreEnd   float64
}

// InCore reports whether a request belongs to the measured interval.
func (t *Trace) InCore(r *controller.Request) bool {
	return r.Arrival >= t.CoreStart && r.Arrival < t.CoreEnd
}

// CoreRun prepares one run of the trace (§7.2: warm-up and cool-down
// requests load the system but are not measured). It returns a private
// copy of every request, in trace order, for a library's RunTrace, and
// the sample that fills with the completion time (completion − arrival)
// of each core-interval request as that run completes it. t.Requests is
// not modified, so the same trace can be run through any number of
// libraries, each with its own CoreRun.
func (t *Trace) CoreRun() ([]*controller.Request, *stats.Sample) {
	core := stats.NewSample()
	copies := make([]controller.Request, len(t.Requests))
	reqs := make([]*controller.Request, len(t.Requests))
	for i, r := range t.Requests {
		cp := &copies[i]
		*cp = *r
		if t.InCore(r) {
			cp.Done = func(at float64) { core.Add(at - cp.Arrival) }
		}
		reqs[i] = cp
	}
	return reqs, core
}

// Generate builds a trace. Arrivals follow a piecewise-constant-rate
// Poisson process whose per-slice rates are lognormal, reproducing the
// bursty hourly behaviour of §2; file sizes are scaled from the
// Figure 1(b) model so the per-profile byte targets hold; files larger
// than MaxShardTracks tracks shard across platters as §6 prescribes.
func Generate(cfg TraceConfig) (*Trace, error) {
	if cfg.Duration <= 0 || cfg.Platters < 1 || cfg.TrackBytes < 1 {
		return nil, fmt.Errorf("workload: invalid trace config %+v", cfg)
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.MaxShardTracks < 1 {
		cfg.MaxShardTracks = 100
	}
	rng := sim.NewRNG(cfg.Seed).Fork("trace")
	sizes := DefaultSizeModel()

	nCore, bytesTarget := profileShape(cfg.Profile)
	nCore = int(float64(nCore) * cfg.RateScale * cfg.Duration / (12 * 3600))
	bytesTarget *= cfg.RateScale * cfg.Duration / (12 * 3600)
	if nCore < 1 {
		nCore = 1
	}

	// Pre-sample sizes, then scale to hit the byte target exactly in
	// expectation: the IOPS profile shrinks files, Volume inflates
	// them, preserving the distribution's shape.
	fileSizes := make([]int64, nCore)
	var total float64
	for i := range fileSizes {
		fileSizes[i] = sizes.Sample(rng)
		total += float64(fileSizes[i])
	}
	scale := bytesTarget / total
	// Cap scaled files at 1 TiB: the Volume profile inflates sizes and
	// an unbounded tail file would exceed a whole library's shard
	// diversity (and no real request spans hundreds of platters).
	const maxFile = int64(1) << 40
	for i := range fileSizes {
		s := int64(float64(fileSizes[i]) * scale)
		if s < 1 {
			s = 1
		}
		if s > maxFile {
			s = maxFile
		}
		fileSizes[i] = s
	}

	// Bursty arrivals: 15-minute slices with heavy-tailed lognormal
	// relative rates (§2: hourly read rates are wildly variable).
	start := 0.0
	end := cfg.Warmup + cfg.Duration + cfg.Cooldown
	coreStart := cfg.Warmup
	coreEnd := cfg.Warmup + cfg.Duration
	const slice = 900.0
	nSlices := int(end/slice) + 1
	rates := make([]float64, nSlices)
	var rateSum float64
	for i := range rates {
		rates[i] = rng.LogNormal(0, 1.6)
		rateSum += rates[i]
	}

	// Total request budget across the whole trace, allocated to slices
	// proportionally to their rate. Warmup/cooldown carry the same
	// process.
	nTotal := int(float64(nCore) * end / cfg.Duration)
	var zipf *sim.Zipf
	if cfg.ZipfSkew > 0 {
		zipf = sim.NewZipf(cfg.Platters, cfg.ZipfSkew)
	}

	var reqs []*controller.Request
	var id controller.RequestID
	sizeIdx := 0
	nextSize := func() int64 {
		s := fileSizes[sizeIdx%len(fileSizes)]
		sizeIdx++
		return s
	}
	for si := 0; si < nSlices; si++ {
		sliceStart := start + float64(si)*slice
		expect := float64(nTotal) * rates[si] / rateSum
		n := rng.Poisson(expect)
		for k := 0; k < n; k++ {
			arrival := sliceStart + rng.Float64()*slice
			if arrival >= end {
				continue
			}
			size := nextSize()
			platter := rng.Intn(cfg.Platters)
			if zipf != nil {
				platter = zipf.Sample(rng)
			}
			tracks := cfg.TracksPerFile(size)
			// Shard large files across platters (§6): consecutive
			// shards land on different platters (skewed placement
			// re-samples per shard so the hot-platter distribution
			// holds for shards too).
			for shard := 0; tracks > 0; shard++ {
				t := tracks
				if t > cfg.MaxShardTracks {
					t = cfg.MaxShardTracks
				}
				tracks -= t
				shardPlatter := (platter + shard*7) % cfg.Platters
				if zipf != nil && shard > 0 {
					shardPlatter = zipf.Sample(rng)
				}
				id++
				reqs = append(reqs, &controller.Request{
					ID:         id,
					Platter:    media.PlatterID(shardPlatter),
					StartTrack: 0,
					TrackCount: t,
					Bytes:      int64(t) * cfg.TrackBytes,
					Arrival:    arrival,
				})
			}
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return &Trace{Requests: reqs, CoreStart: coreStart, CoreEnd: coreEnd}, nil
}

// GeneratePoisson builds the §7.7 full-library synthetic trace: steady
// Poisson arrivals at ratePerSec, fixed ~100 MB files (the workload's
// mean), uniform platter placement.
func GeneratePoisson(ratePerSec, duration, warmup, cooldown float64,
	platters, tracksPerFile int, trackBytes int64, seed uint64) *Trace {

	rng := sim.NewRNG(seed).Fork("poisson-trace")
	end := warmup + duration + cooldown
	var reqs []*controller.Request
	var id controller.RequestID
	t := 0.0
	for {
		t += rng.Exponential(ratePerSec)
		if t >= end {
			break
		}
		id++
		reqs = append(reqs, &controller.Request{
			ID:         id,
			Platter:    media.PlatterID(rng.Intn(platters)),
			StartTrack: 0,
			TrackCount: tracksPerFile,
			Bytes:      int64(tracksPerFile) * trackBytes,
			Arrival:    t,
		})
	}
	return &Trace{Requests: reqs, CoreStart: warmup, CoreEnd: warmup + duration}
}

// TracksFor returns a TracksPerFile function for a track payload size.
func TracksFor(trackBytes int64) func(int64) int {
	return func(fileBytes int64) int {
		t := int((fileBytes + trackBytes - 1) / trackBytes)
		if t < 1 {
			t = 1
		}
		return t
	}
}
