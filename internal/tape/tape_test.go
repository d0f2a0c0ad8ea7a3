package tape

import (
	"testing"

	"silica/internal/controller"
	"silica/internal/media"
	"silica/internal/sim"
)

func mkReqs(n int, interval float64, bytes int64, cartridges int, seed uint64) []*controller.Request {
	rng := sim.NewRNG(seed)
	out := make([]*controller.Request, n)
	for i := range out {
		out[i] = &controller.Request{
			ID:      controller.RequestID(i + 1),
			Platter: media.PlatterID(rng.Intn(cartridges)),
			Bytes:   bytes,
			Arrival: float64(i) * interval,
		}
	}
	return out
}

func TestSingleReadTimeline(t *testing.T) {
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := 0.0
	req := &controller.Request{ID: 1, Platter: 3, Bytes: 4 << 20, Arrival: 0,
		Done: func(tc float64) { done = tc }}
	l.RunTrace([]*controller.Request{req}, 0)
	// Robot fetch (15) + load/thread (75) + seek (~13.5-76.5) + stream.
	if done < 100 || done > 180 {
		t.Fatalf("single small read took %v s; tape overheads wrong", done)
	}
	if l.Mounts() != 1 {
		t.Fatalf("mounts = %d", l.Mounts())
	}
}

func TestAllComplete(t *testing.T) {
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqs := mkReqs(500, 1, 4<<20, 1000, 3)
	l.RunTrace(reqs, 0)
	if got := l.completions.N(); got != 500 {
		t.Fatalf("completed %d/500", got)
	}
}

func TestGroupingAmortizesMounts(t *testing.T) {
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 200 requests against only 5 cartridges arriving in a burst:
	// mounts should be far fewer than requests.
	reqs := mkReqs(200, 0.01, 4<<20, 5, 5)
	l.RunTrace(reqs, 0)
	if l.completions.N() != 200 {
		t.Fatal("requests lost")
	}
	if l.Mounts() > 40 {
		t.Fatalf("mounts = %d; per-cartridge grouping broken", l.Mounts())
	}
}

func TestRobotArmsSerialize(t *testing.T) {
	few := DefaultConfig()
	few.RobotArms = 1
	many := DefaultConfig()
	many.RobotArms = 8
	tails := map[int]float64{}
	for arms, cfg := range map[int]Config{1: few, 8: many} {
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := mkReqs(800, 0.2, 4<<20, 800, 7)
		l.RunTrace(reqs, 0)
		tails[arms] = l.completions.P999()
	}
	if tails[8] >= tails[1] {
		t.Fatalf("more robot arms should shorten tails: 1 arm %v vs 8 arms %v",
			tails[1], tails[8])
	}
}

func TestStreamingThroughputMatters(t *testing.T) {
	// For a very large read, streaming dominates: completion ~ bytes/rate.
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bytes := int64(360e9) // 1000 s of streaming
	done := 0.0
	req := &controller.Request{ID: 1, Platter: 1, Bytes: bytes, Arrival: 0,
		Done: func(tc float64) { done = tc }}
	l.RunTrace([]*controller.Request{req}, 0)
	if done < 1000 || done > 1250 {
		t.Fatalf("1000 s stream completed at %v", done)
	}
}

func TestConfigValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Drives = 0 },
		func(c *Config) { c.RobotArms = 0 },
		func(c *Config) { c.Cartridges = 0 },
		func(c *Config) { c.Throughput = 0 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		l, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		reqs := mkReqs(300, 0.5, 4<<20, 500, 11)
		l.RunTrace(reqs, 0)
		return l.completions.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("tape twin not deterministic: %v vs %v", a, b)
	}
}
