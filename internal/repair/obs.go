package repair

import "silica/internal/obs"

// managerMetrics holds the repair subsystem's pre-registered
// instruments. Families are registered at manager construction so
// /metrics shows them at zero before any scrub runs; the loops then
// touch only atomics. The sectors a scrub samples are counted by the
// Target that reads them (service: silica_repair_scrub_sectors_total).
type managerMetrics struct {
	scrubs      *obs.Counter
	scrubSkips  *obs.Counter
	margin      *obs.Histogram
	rebuildDone *obs.Counter
	rebuildFail *obs.Counter
}

// newManagerMetrics registers the repair families in reg and hooks the
// health-state and rebuild gauges to scrape time (counting the
// registry per observation would put a map walk on the scrub loop; at
// scrape time it is one walk per poll).
func newManagerMetrics(reg *obs.Registry, m *Manager) managerMetrics {
	mm := managerMetrics{
		scrubs: reg.Counter("silica_repair_scrubs_total",
			"Scrub passes completed by the background scrubber."),
		scrubSkips: reg.Counter("silica_repair_scrub_skips_total",
			"Scrub ticks skipped because the foreground gate was closed."),
		margin: reg.Histogram("silica_repair_scrub_min_margin",
			"Worst LDPC decode margin observed per scrub pass.", obs.MarginBuckets()),
		rebuildDone: reg.Counter("silica_repair_rebuilds_total",
			"Platter rebuilds, by outcome.", obs.L("outcome", "done")),
		rebuildFail: reg.Counter("silica_repair_rebuilds_total",
			"Platter rebuilds, by outcome.", obs.L("outcome", "failed")),
	}
	active := reg.Gauge("silica_repair_rebuilds_active", "Rebuilds currently running.")
	queued := reg.Gauge("silica_repair_rebuilds_queued", "Failed set members awaiting a rebuild.")
	states := make(map[Health]*obs.Gauge, int(Retired)+1)
	for h := Healthy; h <= Retired; h++ {
		states[h] = reg.Gauge("silica_platter_health",
			"Platters currently in each health state.", obs.L("state", h.String()))
	}
	reg.OnScrape(func() {
		st := m.Stats()
		active.Set(float64(st.RebuildsActive))
		queued.Set(float64(st.RebuildsQueued))
		counts := m.reg.Counts()
		for h, g := range states {
			g.Set(float64(counts[h]))
		}
	})
	return mm
}
