package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// mayBeZero lists per-layer metrics that are legitimately zero (or
// negative: a difference of two measurements) on every workload of a
// quick run.
var mayBeZero = map[string]bool{
	"service.sector_repairs": true, "persist.snapshots": true, "codec.token_misses": true,
	"service.redundancy_platters": true, // a quick round is one platter: no set closes
	"voxel.read_fail_frac":        true, "trace.overhead_frac": true,
	"reconcile.put_unexplained_frac": true, "reconcile.get_unexplained_frac": true,
	"reconcile.flush_unexplained_frac": true, "backend.twin_read_spread_frac": true,
}

type contract struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestQuickSuite runs all four workloads in-process at -quick size,
// traced (which also computes the end-to-end set), and checks the
// output schema and the invariants that make the workloads separate
// the layers.
func TestQuickSuite(t *testing.T) {
	began := time.Now()
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}

	dir := t.TempDir()
	positive := map[string]bool{}
	layers := map[string]map[string]float64{}
	for _, w := range workloadDefs {
		res, err := runWorkload(runConfig{workload: w.Name, seed: defaultSeed, seconds: referenceSeconds, trace: true, quick: true, dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d error=%q", w.Name, res.Correct, res.Attempted, res.Failed, res.Error)
		}
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := contractLine(res, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			var c contract
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&c); err != nil {
				t.Fatalf("%s: result line does not parse: %v\n%s", w.Name, err, line)
			}
			if len(c.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(c.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := c.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing, valueless or with unit %q (want %q)", w.Name, d.Name, m.Unit, d.Unit)
					continue
				}
				v := *m.Value
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", w.Name, d.Name, v)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, d.Name, v)
				}
				if traced && v < 0 && !mayBeZero[d.Name] {
					t.Errorf("%s: per-layer %s = %v, want >= 0", w.Name, d.Name, v)
				}
				if v > 0 {
					positive[d.Name] = true
				}
			}
		}
		layers[w.Name] = res.PerLayer
	}
	for _, d := range perLayer {
		if !positive[d.Name] && !mayBeZero[d.Name] {
			t.Errorf("per-layer %s is positive on no workload", d.Name)
		}
	}

	// The workloads separate the layers.
	for name, m := range layers {
		if got := m["service.set_recoveries"] > 0; got != (name == "degraded_read") {
			t.Errorf("%s: service.set_recoveries = %v", name, m["service.set_recoveries"])
		}
		codec := m["codec.encode_sectors"] + m["codec.decode_sectors"]
		if got := codec == 0; got != (name == "cluster_small") {
			t.Errorf("%s: %v sectors through the codec", name, codec)
		}
	}
	// One WAL fsync acknowledges a Put on one library (two closed-loop
	// clients can share a group commit, never add one); the ladder's
	// router rung pays three in series: primary, replica, placement.
	if got := layers["ingest"]["persist.fsyncs_per_put"]; got <= 0.5 || got > 1 {
		t.Errorf("ingest: %v WAL fsyncs per put, want (0.5,1]", got)
	}
	if got := layers["cluster_small"]["persist.fsyncs_per_put"]; got != 0 {
		t.Errorf("cluster_small: %v WAL fsyncs per put, want 0 (its timed stack keeps no log)", got)
	}
	if got := layers["ingest"]["cluster.fsyncs_per_put"]; got != 3 {
		t.Errorf("ladder: %v fsyncs per routed put, want 3", got)
	}
	// Sized to stay under 15 s unraced (about 5 s on the 2-core reference
	// box); logged, not asserted, because -race and a busy host both
	// stretch it.
	t.Logf("quick suite took %v", time.Since(began))
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json at the repository
// root in step with the tables in defs.go.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the repository: %v", err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkFile(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from defs.go; regenerate with `go run . -benchmark-json > ../../BENCHMARK.json`\n got %+v\nwant %+v", got, want)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median(nil) + percentile(nil, 0.5); got != 0 {
		t.Errorf("empty input = %v, want 0", got)
	}
}
