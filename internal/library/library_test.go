package library

import (
	"testing"

	"silica/internal/controller"
	"silica/internal/media"
)

// smallConfig is a scaled-down library that keeps unit tests fast.
func smallConfig(policy Policy, shuttles int) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.Shuttles = shuttles
	cfg.Platters = 400
	cfg.Seed = 42
	return cfg
}

func makeRequests(l *Library, n int, interval float64, tracks int) []*controller.Request {
	rng := l.rng.Fork("test-trace")
	geom := l.cfg.PlatterGeom
	reqs := make([]*controller.Request, n)
	for i := 0; i < n; i++ {
		reqs[i] = &controller.Request{
			ID:         l.NextRequestID(),
			Platter:    media.PlatterID(rng.Intn(l.Platters())),
			StartTrack: rng.Intn(geom.TracksPerPlatter - tracks),
			TrackCount: tracks,
			Bytes:      int64(tracks) * geom.TrackUserBytes(),
			Arrival:    float64(i) * interval,
		}
	}
	return reqs
}

func TestSingleRequestCompletes(t *testing.T) {
	l, err := New(smallConfig(PolicySilica, 20))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	req := &controller.Request{
		ID: 1, Platter: 7, StartTrack: 0, TrackCount: 1,
		Bytes: 10e6, Arrival: 0,
		Done: func(float64) { done = true },
	}
	l.RunTrace([]*controller.Request{req}, 0)
	if !done {
		t.Fatal("request never completed")
	}
	m := l.Metrics()
	if m.Completions.N() != 1 {
		t.Fatalf("completions = %d", m.Completions.N())
	}
	// One fetch: travel+pick+travel+place+mount+seek+read. Must be
	// seconds-to-a-minute, not instant and not hours.
	ct := m.Completions.Max()
	if ct < 2 || ct > 120 {
		t.Fatalf("completion time = %v s", ct)
	}
}

func TestAllPoliciesCompleteAllRequests(t *testing.T) {
	for _, pol := range []Policy{PolicySilica, PolicySP, PolicyNS} {
		l, err := New(smallConfig(pol, 8))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		reqs := makeRequests(l, 200, 1.0, 1)
		l.RunTrace(reqs, 0)
		if got := l.Metrics().Completions.N(); got != 200 {
			t.Fatalf("%v completed %d/200", pol, got)
		}
	}
}

// TestNSIsLowerBound: the infeasible no-shuttle baseline must beat the
// shuttle policies (§7.2: "it provides a proxy to the lower bound of
// the shuttle overhead").
func TestNSIsLowerBound(t *testing.T) {
	tails := map[Policy]float64{}
	for _, pol := range []Policy{PolicySilica, PolicySP, PolicyNS} {
		l, err := New(smallConfig(pol, 8))
		if err != nil {
			t.Fatal(err)
		}
		reqs := makeRequests(l, 400, 0.25, 1)
		l.RunTrace(reqs, 0)
		tails[pol] = l.Metrics().Completions.P999()
	}
	if tails[PolicyNS] >= tails[PolicySilica] {
		t.Fatalf("NS tail %v should beat Silica %v", tails[PolicyNS], tails[PolicySilica])
	}
	if tails[PolicyNS] >= tails[PolicySP] {
		t.Fatalf("NS tail %v should beat SP %v", tails[PolicyNS], tails[PolicySP])
	}
}

// TestMoreShuttlesReduceTail reproduces the Fig 5(c) trend on a small
// trace: shuttle-starved libraries queue badly.
func TestMoreShuttlesReduceTail(t *testing.T) {
	tail := func(shuttles int) float64 {
		l, err := New(smallConfig(PolicySilica, shuttles))
		if err != nil {
			t.Fatal(err)
		}
		reqs := makeRequests(l, 600, 0.1, 1)
		l.RunTrace(reqs, 0)
		return l.Metrics().Completions.P999()
	}
	few, many := tail(4), tail(20)
	if many >= few {
		t.Fatalf("20 shuttles (%v) should beat 4 shuttles (%v)", many, few)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		l, err := New(smallConfig(PolicySilica, 10))
		if err != nil {
			t.Fatal(err)
		}
		reqs := makeRequests(l, 300, 0.5, 1)
		l.RunTrace(reqs, 0)
		return l.Metrics().Completions.Mean(), l.ShuttleStats().Travels
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", s1, t1, s2, t2)
	}
}

func TestDriveUtilizationBreakdown(t *testing.T) {
	l, err := New(smallConfig(PolicySilica, 20))
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeRequests(l, 300, 2.0, 1)
	l.RunTrace(reqs, 0)
	horizon := l.Sim().Now()
	u := l.DriveUtilization(horizon)
	// §7.4: fast switching keeps utilization very high, dominated by
	// verification.
	if u.Utilization() < 0.90 {
		t.Fatalf("utilization = %v, want > 0.90 (breakdown %+v)", u.Utilization(), u)
	}
	if u.Verify < u.Read {
		t.Fatalf("verify (%v) should dominate reads (%v) on a light trace", u.Verify, u.Read)
	}
	if u.Read <= 0 || u.Mount <= 0 {
		t.Fatalf("read/mount fractions missing: %+v", u)
	}
	total := u.Read + u.Verify + u.Mount + u.Switch + u.Idle
	if total < 0.999 || total > 1.001 {
		t.Fatalf("fractions sum to %v", total)
	}
}

func TestVerificationDisabledMeansIdle(t *testing.T) {
	cfg := smallConfig(PolicySilica, 20)
	cfg.Verification = false
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeRequests(l, 100, 2.0, 1)
	l.RunTrace(reqs, 0)
	u := l.DriveUtilization(l.Sim().Now())
	if u.Verify != 0 {
		t.Fatalf("verify fraction = %v with verification disabled", u.Verify)
	}
	if u.Idle < 0.5 {
		t.Fatalf("idle = %v, drives should mostly idle on a light trace", u.Idle)
	}
}

// TestRecoveryAmplification reproduces §7.6: a read of an unavailable
// platter becomes SetInfo (16) matching-track reads.
func TestRecoveryAmplification(t *testing.T) {
	cfg := smallConfig(PolicySilica, 20)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Make exactly one platter unavailable.
	l.unavailable[media.PlatterID(5)] = true
	done := false
	req := &controller.Request{
		ID: 1, Platter: 5, StartTrack: 0, TrackCount: 1, Bytes: 10e6,
		Arrival: 0, Done: func(float64) { done = true },
	}
	l.RunTrace([]*controller.Request{req}, 0)
	m := l.Metrics()
	if !done {
		t.Fatal("recovery read never completed")
	}
	if m.InternalReads != 16 {
		t.Fatalf("internal reads = %d, want 16 (16x amplification)", m.InternalReads)
	}
	if m.Completions.N() != 1 {
		t.Fatalf("completions = %d, want 1 (internal reads must not count)", m.Completions.N())
	}
	if m.Unrecoverable != 0 {
		t.Fatalf("unrecoverable = %d", m.Unrecoverable)
	}
}

func TestRecoveryFailsWithTooManyUnavailable(t *testing.T) {
	cfg := smallConfig(PolicySilica, 20)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill 4 platters of the same 19-platter set (R=3 tolerated).
	for i := 0; i < 4; i++ {
		l.unavailable[media.PlatterID(i)] = true
	}
	req := &controller.Request{ID: 1, Platter: 0, StartTrack: 0, TrackCount: 1, Bytes: 1e6, Arrival: 0}
	l.RunTrace([]*controller.Request{req}, 0)
	if l.Metrics().Unrecoverable != 1 {
		t.Fatalf("unrecoverable = %d, want 1", l.Metrics().Unrecoverable)
	}
}

func TestMarkUnavailableFraction(t *testing.T) {
	l, err := New(smallConfig(PolicySilica, 20))
	if err != nil {
		t.Fatal(err)
	}
	l.MarkUnavailable(0.1)
	if got := len(l.unavailable); got != 40 {
		t.Fatalf("unavailable = %d, want 40", got)
	}
}

func TestMarkZoneUnavailable(t *testing.T) {
	l, err := New(smallConfig(PolicySilica, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Pick the zone of platter 0's home slot.
	slot := l.platterSlot[0]
	n := l.MarkZoneUnavailable(struct {
		Rack  int
		Shelf int
	}{slot.Rack, slot.Shelf})
	if n < 1 {
		t.Fatalf("zone failure hit %d platters", n)
	}
	if !l.unavailable[0] {
		t.Fatal("platter 0 should be unavailable")
	}
}

// TestPartitioningBeatsSPOnCongestion is the Fig 7(a) claim: SP
// shuttles conflict, partitioned shuttles almost never do.
func TestPartitioningBeatsSPOnCongestion(t *testing.T) {
	overhead := func(pol Policy) float64 {
		l, err := New(smallConfig(pol, 16))
		if err != nil {
			t.Fatal(err)
		}
		reqs := makeRequests(l, 1000, 0.05, 1)
		l.RunTrace(reqs, 0)
		return l.ShuttleStats().CongestionOverhead()
	}
	sp := overhead(PolicySP)
	silica := overhead(PolicySilica)
	if silica > 0.10 {
		t.Fatalf("silica congestion overhead = %v, want < 10%%", silica)
	}
	if sp <= silica {
		t.Fatalf("SP congestion (%v) should exceed Silica (%v)", sp, silica)
	}
}

// TestSilicaUsesLessEnergyThanSP is the Fig 7(b) claim: shorter
// within-partition travel means less motor energy per platter op.
func TestSilicaUsesLessEnergyThanSP(t *testing.T) {
	energy := func(pol Policy) float64 {
		l, err := New(smallConfig(pol, 16))
		if err != nil {
			t.Fatal(err)
		}
		reqs := makeRequests(l, 500, 0.2, 1)
		l.RunTrace(reqs, 0)
		return l.ShuttleStats().EnergyPerOp()
	}
	sp := energy(PolicySP)
	silica := energy(PolicySilica)
	if silica >= sp {
		t.Fatalf("silica energy/op (%v) should be below SP (%v)", silica, sp)
	}
}

// TestWorkStealingHelpsSkew is the Fig 7(c) claim: with all requests
// landing in few partitions, stealing shortens the tail.
func TestWorkStealingHelpsSkew(t *testing.T) {
	run := func(stealing bool) float64 {
		cfg := smallConfig(PolicySilica, 16)
		cfg.WorkStealing = stealing
		cfg.StealThreshold = 50e6
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// All requests target platters homed in one partition.
		var target []media.PlatterID
		for id, part := range l.platterPart {
			if part == 0 {
				target = append(target, id)
			}
		}
		if len(target) == 0 {
			t.Fatal("no platters in partition 0")
		}
		rng := l.rng.Fork("skew")
		geom := l.cfg.PlatterGeom
		var reqs []*controller.Request
		for i := 0; i < 400; i++ {
			reqs = append(reqs, &controller.Request{
				ID:         l.NextRequestID(),
				Platter:    target[rng.Intn(len(target))],
				StartTrack: rng.Intn(geom.TracksPerPlatter - 1),
				TrackCount: 1,
				Bytes:      geom.TrackUserBytes(),
				Arrival:    float64(i) * 0.05,
			})
		}
		l.RunTrace(reqs, 0)
		if stealing && l.ShuttleStats().StolenOps == 0 {
			t.Fatal("stealing enabled but no ops stolen under heavy skew")
		}
		return l.Metrics().Completions.P999()
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Fatalf("stealing tail %v should beat no-stealing %v", with, without)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.DriveThroughput = 0 },
		func(c *Config) { c.Platters = 0 },
		func(c *Config) { c.Platters = 1 << 30 },
		func(c *Config) { c.Shuttles = 0 },
		func(c *Config) { c.Shuttles = 1000 },
		func(c *Config) { c.SetInfo = 0 },
		func(c *Config) { c.PlatterGeom.TracksPerPlatter = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// NS needs no shuttles.
	cfg := DefaultConfig()
	cfg.Policy = PolicyNS
	cfg.Shuttles = 0
	if _, err := New(cfg); err != nil {
		t.Fatalf("NS with zero shuttles rejected: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicySilica.String() != "silica" || PolicySP.String() != "sp" || PolicyNS.String() != "ns" {
		t.Fatal("policy names")
	}
}

func TestLateRequestsServedOnMountedPlatter(t *testing.T) {
	// A request arriving while its platter is already mounted should
	// be absorbed into the same mount (§4.1 amortization).
	l, err := New(smallConfig(PolicySilica, 20))
	if err != nil {
		t.Fatal(err)
	}
	mkReq := func(id int, arrival float64) *controller.Request {
		return &controller.Request{
			ID: controller.RequestID(id), Platter: 3, StartTrack: 0,
			TrackCount: 1, Bytes: 10e6, Arrival: arrival,
		}
	}
	// Second request lands mid-service of the first (fetch takes tens
	// of seconds; read under a second).
	reqs := []*controller.Request{mkReq(1, 0), mkReq(2, 20)}
	l.RunTrace(reqs, 0)
	m := l.Metrics()
	if m.Completions.N() != 2 {
		t.Fatalf("completions = %d", m.Completions.N())
	}
	// If absorbed, total platter ops should be at most 2 (one fetch,
	// possibly one more if the platter was already home again).
	if ops := l.ShuttleStats().PlatterOps; ops > 2 {
		t.Fatalf("platter ops = %d; second request should amortize the fetch", ops)
	}
}

func TestPartitionCapPoolsDrives(t *testing.T) {
	// The ablation knob: capping partitions at half the drive count
	// gives every partition two drives.
	cfg := smallConfig(PolicySilica, 20)
	cfg.PartitionCap = 10
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.parts) != 10 {
		t.Fatalf("partitions = %d, want 10", len(l.parts))
	}
	pooled := 0
	for _, drives := range l.partDrives {
		if len(drives) >= 2 {
			pooled++
		}
	}
	if pooled == 0 {
		t.Fatal("capping partitions should pool drives somewhere")
	}
	reqs := makeRequests(l, 100, 1, 1)
	l.RunTrace(reqs, 0)
	if l.Metrics().Completions.N() != 100 {
		t.Fatal("capped partitions lost requests")
	}
}
