package service

import (
	"sync"
	"time"

	"silica/internal/obs"
	"silica/internal/staging"
)

// serviceMetrics holds the service's pre-registered instruments. All
// families are registered at construction so a fresh daemon's /metrics
// already shows them at zero; the hot paths then touch only atomics.
type serviceMetrics struct {
	// Flush pipeline phase timings, one histogram per phase.
	phaseBatch   *obs.Histogram
	phaseEncode  *obs.Histogram
	phaseBurn    *obs.Histogram
	phaseVerify  *obs.Histogram
	phasePublish *obs.Histogram

	// Read-path outcomes: source of served bytes and recovery-tier
	// escalations (§5 hierarchy).
	readsStaged  *obs.Counter
	readsDurable *obs.Counter
	recSector    *obs.Counter
	recTrack     *obs.Counter
	recSet       *obs.Counter

	// Glass books: platters by lifecycle event, sectors burned, payload
	// bytes stored by kind, sectors whose direct decode failed in a
	// verify or scrub read-back, and each read-back's running minimum
	// decode margin (1 until a sector decodes).
	plattersWritten, plattersRedundancy          *obs.Counter // published
	plattersFaulted, plattersRebuilt             *obs.Counter
	sectorsWritten, storedUser, storedRedundancy *obs.Counter
	verifyFailures, scrubSectors, scrubFailures  *obs.Counter
	minVerifyMargin, minScrubMargin              *obs.Gauge

	// Codec hot-path telemetry: per-sector LDPC encode/decode wall time
	// (batched encodes record the per-sector mean) and sector totals.
	// The matching sectors-per-second gauges are computed at scrape time
	// from counter deltas.
	codecEncode     *obs.Histogram
	codecDecode     *obs.Histogram
	codecEncSectors *obs.Counter
	codecDecSectors *obs.Counter
}

// newServiceMetrics registers the service families in reg and hooks
// the staging-tier occupancy gauges to scrape time: staging levels are
// already tracked by the tier itself, so mirroring them on demand
// costs the write path nothing.
func newServiceMetrics(reg *obs.Registry, usage func() staging.Usage) serviceMetrics {
	const flushPhase = "silica_flush_phase_seconds"
	const flushHelp = "Wall time of one flush pipeline phase."
	// counters names a family labelled by key once; each call of the
	// returned func registers one child.
	counters := func(name, help, key string) func(string) *obs.Counter {
		return func(value string) *obs.Counter { return reg.Counter(name, help, obs.L(key, value)) }
	}
	reads := counters("silica_service_reads_total", "Reads served, by source tier.", "source")
	recoveries := counters("silica_read_recoveries_total", "Read-path recoveries, by coding tier.", "tier")
	platters := counters("silica_service_platters_total",
		"Platters, by event: written (information) and redundancy (set redundancy) published, "+
			"faulted (scrapped by the write pipeline), rebuilt (replaced from their set).", "event")
	stored := counters("silica_service_stored_bytes_total",
		"Payload bytes put on glass, by kind: user (information platters) or redundancy "+
			"(within-platter NC sectors and set-redundancy platters).", "kind")
	codecSectors := counters("silica_codec_sectors_total", "Sectors pushed through the LDPC codec, by operation.", "op")
	const marginHelp = "Worst LDPC decode margin seen by a read-back, by operation (1 until a sector decodes)."
	m := serviceMetrics{
		phaseBatch:   reg.Histogram(flushPhase, flushHelp, obs.DurationBuckets(), obs.L("phase", "batch")),
		phaseEncode:  reg.Histogram(flushPhase, flushHelp, obs.DurationBuckets(), obs.L("phase", "encode")),
		phaseBurn:    reg.Histogram(flushPhase, flushHelp, obs.DurationBuckets(), obs.L("phase", "burn")),
		phaseVerify:  reg.Histogram(flushPhase, flushHelp, obs.DurationBuckets(), obs.L("phase", "verify")),
		phasePublish: reg.Histogram(flushPhase, flushHelp, obs.DurationBuckets(), obs.L("phase", "publish")),

		readsStaged:  reads("staged"),
		readsDurable: reads("durable"),
		recSector:    recoveries("sector"),
		recTrack:     recoveries("track"),
		recSet:       recoveries("set"),

		plattersWritten:    platters("written"),
		plattersFaulted:    platters("faulted"),
		plattersRedundancy: platters("redundancy"),
		plattersRebuilt:    platters("rebuilt"),
		sectorsWritten: reg.Counter("silica_service_sectors_written_total",
			"Sectors burned onto glass, information and redundancy, scrapped platters included."),
		storedUser:       stored("user"),
		storedRedundancy: stored("redundancy"),
		verifyFailures: reg.Counter("silica_service_verify_sector_failures_total",
			"Sectors unreadable or whose direct LDPC decode failed in a write-verify read-back."),
		scrubSectors: reg.Counter("silica_repair_scrub_sectors_total",
			"Sectors sampled by scrub passes."),
		scrubFailures: reg.Counter("silica_repair_scrub_sector_failures_total",
			"Scrubbed sectors unreadable or whose direct LDPC decode failed."),
		minVerifyMargin: reg.Gauge("silica_service_min_margin", marginHelp, obs.L("op", "verify")),
		minScrubMargin:  reg.Gauge("silica_service_min_margin", marginHelp, obs.L("op", "scrub")),

		codecEncode: reg.Histogram("silica_codec_encode_seconds",
			"Per-sector LDPC encode wall time (batched encodes record the per-sector mean).",
			obs.DurationBuckets()),
		codecDecode: reg.Histogram("silica_codec_decode_seconds",
			"Per-sector LDPC decode wall time.", obs.DurationBuckets()),
		codecEncSectors: codecSectors("encode"),
		codecDecSectors: codecSectors("decode"),
	}
	m.minVerifyMargin.Set(1)
	m.minScrubMargin.Set(1)
	encRate := reg.Gauge("silica_codec_sectors_per_second",
		"Codec sector throughput over the interval since the previous scrape, by operation.",
		obs.L("op", "encode"))
	decRate := reg.Gauge("silica_codec_sectors_per_second",
		"Codec sector throughput over the interval since the previous scrape, by operation.",
		obs.L("op", "decode"))
	var rateMu sync.Mutex
	lastScrape := time.Now()
	var lastEnc, lastDec int64
	reg.OnScrape(func() {
		rateMu.Lock()
		defer rateMu.Unlock()
		now := time.Now()
		dt := now.Sub(lastScrape).Seconds()
		enc, dec := m.codecEncSectors.Value(), m.codecDecSectors.Value()
		if dt > 0 {
			encRate.Set(float64(enc-lastEnc) / dt)
			decRate.Set(float64(dec-lastDec) / dt)
		}
		lastScrape, lastEnc, lastDec = now, enc, dec
	})
	used := reg.Gauge("silica_staging_used_bytes", "Bytes admitted to the staging tier.")
	reserved := reg.Gauge("silica_staging_reserved_bytes", "Bytes reserved but not yet admitted.")
	capacity := reg.Gauge("silica_staging_capacity_bytes", "Staging tier capacity (0 = unbounded).")
	peak := reg.Gauge("silica_staging_peak_bytes", "High-water mark of staged plus reserved bytes.")
	pending := reg.Gauge("silica_staging_pending_files", "Files staged and awaiting flush.")
	reg.OnScrape(func() {
		u := usage()
		used.Set(float64(u.Used))
		reserved.Set(float64(u.Reserved))
		capacity.Set(float64(u.Capacity))
		peak.Set(float64(u.Peak))
		pending.Set(float64(u.Pending))
	})
	return m
}

// phaseTimer starts a phase clock; the returned func observes the
// elapsed seconds into h.
func phaseTimer(h *obs.Histogram) func() {
	t0 := time.Now()
	return func() { h.Observe(time.Since(t0).Seconds()) }
}

// observeCodec records n sectors' worth of codec work that took dt in
// total: the sector counter advances by n and the histogram records the
// per-sector mean, so batched track encodes stay one observation.
func (m *serviceMetrics) observeCodec(h *obs.Histogram, c *obs.Counter, n int, dt time.Duration) {
	if n <= 0 {
		return
	}
	c.Add(int64(n))
	h.Observe(dt.Seconds() / float64(n))
}
