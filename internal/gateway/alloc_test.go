package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"testing"

	"silica/internal/cluster"
	"silica/internal/gateway"
	"silica/internal/voxel"
)

// quietConfig is a gateway that allocates only for the requests it
// serves: no repair scrubber, and a flush scheduler that never fires.
func quietConfig() gateway.Config {
	cfg := gateway.DefaultConfig()
	cfg.DisableRepair = true
	cfg.FlushAge = 0
	cfg.FlushBytes = 1 << 40
	return cfg
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSmallObjectAllocations gates what one 1 KiB Put → Get → Delete
// cycle allocates on the path the benchmark's cluster_small workload
// runs: gateway.Client over loopback HTTP to a router over three
// in-process libraries, every goroutine of the process counted. The
// cycle allocated ≈ 39.7 KB while each request took a fresh gateway
// request and done channel, decoded its reply through io.ReadAll or a
// json.Decoder, asked for gzip, armed a response-header timer and was
// answered through a JSON-encoded map; it measures ≈ 31.7 KB now.
func TestSmallObjectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c, err := cluster.NewLocal(cluster.LocalConfig{Libraries: 3, Gateway: quietConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	client := gateway.NewClient(srv.URL)

	data := make([]byte, 1<<10)
	const warm, cycles = 100, 1000
	names := make([]string, warm+cycles)
	for i := range names {
		names[i] = fmt.Sprintf("o%05d", i)
	}
	cycle := func(name string) {
		if _, err := client.Put("acct", name, data); err != nil {
			t.Fatal(err)
		}
		if got, err := client.Get("acct", name); err != nil || len(got) != len(data) {
			t.Fatalf("get %s: %d bytes, %v", name, len(got), err)
		}
		if err := client.Delete("acct", name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names[:warm] {
		cycle(name)
	}
	runtime.GC()
	before := heapAllocBytes()
	for _, name := range names[warm:] {
		cycle(name)
	}
	perCycle := float64(heapAllocBytes()-before) / cycles
	t.Logf("%.0f bytes allocated per 1 KiB put/get/delete cycle", perCycle)
	// The measured value and a 10 % margin: with more Ps than cores the
	// per-P pool caches miss more often (≈ 33 KB at -cpu 8 on two
	// cores, where the old path measured 40.4–41.6 KB).
	if limit := 31.7e3 * 1.10; perCycle > limit {
		t.Errorf("a 1 KiB put/get/delete cycle allocates %.0f bytes, want at most %.0f", perCycle, limit)
	}
}

// TestGatewayRequestAllocations pins the in-process API's allocation
// count per call. Each call took a fresh request and done channel, and
// a staged Get copied the ciphertext before decrypting it: 14, 10–11
// and 4 allocations for a Put, Get and Delete. Now the Put measures 11,
// the Get 6–7 and the Delete 1; the limits are those counts.
func TestGatewayRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g, err := gateway.New(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	ctx := context.Background()
	data := make([]byte, 1<<10)
	const runs = 200
	names := make([]string, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range names {
		names[i] = fmt.Sprintf("o%05d", i)
	}
	each := func(f func(name string)) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			f(names[i])
			i++
		})
	}
	put := each(func(name string) {
		if _, err := g.PutCtx(ctx, "acct", name, data); err != nil {
			t.Fatal(err)
		}
	})
	get := each(func(name string) {
		if _, err := g.GetInto(ctx, "acct", name, nil); err != nil {
			t.Fatal(err)
		}
	})
	del := each(func(name string) {
		if err := g.DeleteCtx(ctx, "acct", name); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per call: put %v, get %v, delete %v", put, get, del)
	for _, c := range []struct {
		op         string
		got, limit float64
	}{{"PutCtx", put, 11}, {"GetInto", get, 7}, {"DeleteCtx", del, 1}} {
		if c.got > c.limit {
			t.Errorf("%s: %v allocations per call, want at most %v", c.op, c.got, c.limit)
		}
	}
}

// TestDurableHTTPGetAllocations gates what one GET of a durable 4 KiB
// object allocates over loopback HTTP to the library daemon, client and
// server together, with the client reading each reply into its last
// one's buffer: the route decodes into a pooled reply buffer, so the
// server allocates no object-sized buffer once the pool is warm: ≈ 7.9
// KB. It measured ≈ 18.2 KB (with Client.Get) when the route decoded
// into a fresh 5376 B ciphertext buffer per GET and the client read
// each reply into a fresh buffer one byte longer than the object;
// Client.Get, reading into a fresh buffer, measures ≈ 12.0 KB now.
func TestDurableHTTPGetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := quietConfig()
	cfg.Service.Channel = voxel.CleanChannel() // no read escalates to a recovery tier
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	client := gateway.NewClient(srv.URL)
	t.Cleanup(client.CloseIdle)

	want := bytes.Repeat([]byte("glass"), 1000)[:4096]
	if _, err := client.Put("acct", "4k", want); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var buf []byte
	get := func() {
		data, err := client.GetInto(ctx, "acct", "4k", buf[:0])
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("GET: err=%v, byte-exact=%v", err, bytes.Equal(data, want))
		}
		buf = data
	}
	// The least of several batches: a GC empties the pools, and with
	// more Ps than cores their per-P caches miss, so a batch a GC falls
	// in also counts refilling the service's codec scratch.
	const warm, batches, runs = 50, 8, 100
	for i := 0; i < warm; i++ {
		get()
	}
	perGet := math.Inf(1)
	var before, after runtime.MemStats // ReadMemStats flushes every P's allocation counts
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		perGet = min(perGet, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if st := g.Service().Stats(); st.DurableReads < warm+batches*runs || st.SectorRepairs != 0 {
		t.Fatalf("reads were not plain durable reads: %+v", st)
	}
	t.Logf("%.0f bytes allocated per durable 4 KiB GET", perGet)
	// The measured value and a 10 % margin.
	if limit := 7900 * 1.10; perGet > limit {
		t.Errorf("a durable 4 KiB GET allocates %.0f bytes, want at most %.0f", perGet, limit)
	}
}
