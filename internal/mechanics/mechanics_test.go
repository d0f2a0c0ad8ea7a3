package mechanics

import (
	"math"
	"testing"

	"silica/internal/geometry"
	"silica/internal/sim"
	"silica/internal/stats"
)

func TestHorizontalTimeProfile(t *testing.T) {
	m := Default()
	if m.HorizontalTime(0) != 0 {
		t.Fatal("zero distance should take zero time")
	}
	// Short move: triangular profile, t = 2*sqrt(d/a).
	d := 0.5
	want := 2 * math.Sqrt(d/m.Accel)
	if got := m.HorizontalTime(d); math.Abs(got-want) > 1e-9 {
		t.Fatalf("short move = %v, want %v", got, want)
	}
	// Long move: trapezoidal, t = d/v + v/a.
	d = 20.0
	want = d/m.TopSpeed + m.TopSpeed/m.Accel
	if got := m.HorizontalTime(d); math.Abs(got-want) > 1e-9 {
		t.Fatalf("long move = %v, want %v", got, want)
	}
	// Monotone in distance.
	prev := 0.0
	for d := 0.1; d < 15; d += 0.1 {
		got := m.HorizontalTime(d)
		if got < prev {
			t.Fatalf("time not monotone at d=%v", d)
		}
		prev = got
	}
	// Continuous at the ramp boundary.
	ramp := m.TopSpeed * m.TopSpeed / m.Accel
	below, above := m.HorizontalTime(ramp-1e-9), m.HorizontalTime(ramp+1e-9)
	if math.Abs(below-above) > 1e-4 {
		t.Fatalf("discontinuity at ramp distance: %v vs %v", below, above)
	}
}

// TestCrabCalibration pins Fig 3(b): spread 88 ms, 86% of operations
// within 3 s, maximum 3.02 s.
func TestCrabCalibration(t *testing.T) {
	m := Default()
	r := sim.NewRNG(1)
	s := stats.NewSample()
	for i := 0; i < 50000; i++ {
		s.Add(m.Crab.Sample(r))
	}
	if s.Quantile(0) < 2.932-1e-9 || s.Max() > 3.02+1e-9 {
		t.Fatalf("crab range [%v, %v]", s.Quantile(0), s.Max())
	}
	if spread := s.Max() - s.Quantile(0); spread > 0.088+1e-6 {
		t.Fatalf("crab spread = %v, want <= 0.088", spread)
	}
	within3 := s.Quantile(0.86)
	if within3 > 3.0+1e-6 {
		t.Fatalf("86th percentile = %v, want <= 3.0", within3)
	}
}

// TestPickSlowerThanPlace pins Fig 3(c): picking averages ~170 ms
// slower than placing.
func TestPickSlowerThanPlace(t *testing.T) {
	m := Default()
	r := sim.NewRNG(2)
	pick, place := stats.NewSample(), stats.NewSample()
	for i := 0; i < 50000; i++ {
		pick.Add(m.Pick.Sample(r))
		place.Add(m.Place.Sample(r))
	}
	delta := pick.Mean() - place.Mean()
	if delta < 0.15 || delta > 0.19 {
		t.Fatalf("pick-place delta = %v, want ~0.17", delta)
	}
}

// TestSeekCalibration pins Fig 3(d): median 0.6 s, max 2 s.
func TestSeekCalibration(t *testing.T) {
	m := Default()
	r := sim.NewRNG(3)
	s := stats.NewSample()
	for i := 0; i < 50000; i++ {
		s.Add(m.Seek.Sample(r))
	}
	if med := s.Median(); med < 0.55 || med > 0.65 {
		t.Fatalf("seek median = %v, want ~0.6", med)
	}
	if s.Max() > 2.0+1e-9 {
		t.Fatalf("seek max = %v, want <= 2", s.Max())
	}
}

func TestConstantOverheads(t *testing.T) {
	m := Default()
	if m.Mount != 1 || m.Unmount != 1 || m.FastSwitch != 1 {
		t.Fatalf("drive overheads = %v/%v/%v, want 1 s each", m.Mount, m.Unmount, m.FastSwitch)
	}
}

func TestTravelTimeComposition(t *testing.T) {
	m := Default()
	r := sim.NewRNG(4)
	// Pure vertical: no fine tuning, ~3 s per crab.
	tr := geometry.Travel{DistanceX: 0, Crabs: 3}
	got := m.TravelTime(tr, r)
	if got < 3*2.93 || got > 3*3.03 {
		t.Fatalf("3 crabs = %v", got)
	}
	// Pure horizontal: fast phase plus fine tune.
	tr = geometry.Travel{DistanceX: 5, Crabs: 0}
	got = m.TravelTime(tr, r)
	want := m.HorizontalTime(5) + m.FineTune
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("horizontal travel = %v, want %v", got, want)
	}
	// Zero travel costs nothing.
	if m.TravelTime(geometry.Travel{}, r) != 0 {
		t.Fatal("no-op travel should be free")
	}
}

func TestExpectedTravelTimeTracksSamples(t *testing.T) {
	m := Default()
	r := sim.NewRNG(5)
	tr := geometry.Travel{DistanceX: 4, Crabs: 2}
	s := stats.NewSample()
	for i := 0; i < 20000; i++ {
		s.Add(m.TravelTime(tr, r))
	}
	exp := m.ExpectedTravelTime(tr)
	if math.Abs(s.Mean()-exp) > 0.02 {
		t.Fatalf("expected %v vs sampled mean %v", exp, s.Mean())
	}
}

func TestTravelEnergy(t *testing.T) {
	m := Default()
	short := m.TravelEnergy(geometry.Travel{DistanceX: 1, Crabs: 0}, 0)
	long := m.TravelEnergy(geometry.Travel{DistanceX: 10, Crabs: 0}, 0)
	if long <= short {
		t.Fatal("longer travel should use more energy")
	}
	stopped := m.TravelEnergy(geometry.Travel{DistanceX: 10, Crabs: 0}, 2)
	if stopped-long != 2*m.EnergyPerStart {
		t.Fatalf("stop cost = %v, want %v", stopped-long, 2*m.EnergyPerStart)
	}
	crabby := m.TravelEnergy(geometry.Travel{DistanceX: 0, Crabs: 4}, 0)
	if crabby != 4*m.EnergyPerCrab {
		t.Fatalf("crab energy = %v", crabby)
	}
	if m.TravelEnergy(geometry.Travel{}, 5) != 0 {
		t.Fatal("no-op travel should cost no energy")
	}
}
