package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"silica/internal/backend"
	"silica/internal/gf256"
	"silica/internal/keystore"
	"silica/internal/ldpc"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/nc"
	"silica/internal/persist"
	"silica/internal/sim"
	"silica/internal/voxel"
)

// The ladder times each layer's public functions alone, outside in, on
// the workloads' own input shapes (1000-byte sectors, 4 KiB and 1 KiB
// objects, the default channel, fixed seeds) and reports medians. It
// does not depend on the workload, so one process runs it once.

const ladderSeed = 20230923

type ladderResult struct {
	metrics map[string]float64
	lines   []string
	err     error
}

var (
	ladderOnce  sync.Once
	ladderCache ladderResult
)

func runLadder(dir string, tr *tracer, quick bool) (map[string]float64, []string, error) {
	ladderOnce.Do(func() {
		l := &ladder{tr: tr, m: map[string]float64{}, calls: 1}
		if quick {
			l.calls = 0.1
		}
		err := l.run(dir)
		ladderCache = ladderResult{l.m, l.lines, err}
	})
	return ladderCache.metrics, ladderCache.lines, ladderCache.err
}

type ladder struct {
	tr    *tracer
	m     map[string]float64
	lines []string
	calls float64 // call-count multiplier (quick mode shrinks it)
}

func (l *ladder) n(base int) int {
	n := int(float64(base) * l.calls)
	if n < 5 {
		n = 5
	}
	return n
}

// time runs fn n times with a span around each call and returns the
// per-call durations in microseconds.
func (l *ladder) time(name string, n int, fn func(i int) error) ([]float64, error) {
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		_, end := l.tr.begin("ladder."+name, 0, 0)
		t0 := time.Now()
		err := fn(i)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		end()
		if err != nil {
			return nil, fmt.Errorf("%s call %d: %w", name, i, err)
		}
	}
	return us, nil
}

// rung records the median of fn's call times under name.
func (l *ladder) rung(name string, n int, fn func(i int) error) error {
	us, err := l.time(name, n, fn)
	if err != nil {
		return err
	}
	l.m[name] = median(us)
	return nil
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func (l *ladder) run(dir string) error {
	rng := rand.New(rand.NewSource(ladderSeed))
	if err := l.kernels(rng); err != nil {
		return err
	}
	if err := l.persistRung(filepath.Join(dir, "wal"), rng); err != nil {
		return err
	}
	flush, err := l.singleLibrary(filepath.Join(dir, "single"), rng)
	if err != nil {
		return err
	}
	if err := l.cluster(filepath.Join(dir, "cluster"), rng); err != nil {
		return err
	}
	if err := l.twin(); err != nil {
		return err
	}
	l.reconcile(flush)
	return nil
}

// kernels: gf256, nc, ldpc, voxel, keystore — pure CPU, no I/O.
func (l *ladder) kernels(rng *rand.Rand) error {
	geom := media.TinyGeometry()
	sector := geom.SectorPayloadBytes

	// gf256: one "call" is 64 multiply-accumulates over a sector, so the
	// timer resolution does not dominate.
	src, dst := randomBytes(rng, sector), make([]byte, sector)
	const reps = 64
	us, err := l.time("gf256.muladd", l.n(400), func(i int) error {
		for k := 0; k < reps; k++ {
			gf256.MulAddVec(dst, src, byte(2+k))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["gf256.muladd_mbps"] = float64(reps*sector) / median(us) // bytes/us == MB/s

	// nc: the within-track shape (8+2) encodes, the platter-set shape
	// (4+2) reconstructs one missing unit, both on sector-size units.
	track, err := nc.NewGroup(geom.InfoSectorsPerTrack, geom.RedundancySectorsPerTrack, nc.Cauchy, serviceSeed^0x1)
	if err != nil {
		return err
	}
	info := make([][]byte, track.I)
	for i := range info {
		info[i] = randomBytes(rng, sector)
	}
	if err := l.rung("nc.encode_track_us", l.n(400), func(int) error {
		_, err := track.EncodeRedundancy(info)
		return err
	}); err != nil {
		return err
	}
	set, err := nc.NewGroup(4, 2, nc.Cauchy, serviceSeed^0x3)
	if err != nil {
		return err
	}
	red, err := set.EncodeRedundancy(info[:4])
	if err != nil {
		return err
	}
	if err := l.rung("nc.reconstruct_set_us", l.n(400), func(int) error {
		avail := map[int][]byte{1: info[1], 2: info[2], 3: info[3], 4: red[0], 5: red[1]}
		_, err := set.Reconstruct(avail, []int{0})
		return err
	}); err != nil {
		return err
	}

	// ldpc: the service's sector code (512, 384) over a 1000-byte payload.
	code, err := ldpc.NewCode(512, 384, serviceSeed^0xbeef)
	if err != nil {
		return err
	}
	sc, err := ldpc.NewSectorCodec(code, sector)
	if err != nil {
		return err
	}
	payload := randomBytes(rng, sector)
	coded := make([]uint8, sc.EncodedBits())
	if err := l.rung("ldpc.encode_sector_us", l.n(400), func(int) error {
		sc.EncodeSectorInto(payload, coded)
		return nil
	}); err != nil {
		return err
	}
	buf := make([]byte, sector)
	// noisy flips flipsPerBlock bits in every block; the ladder's seed
	// fixes the pattern, redrawn until it is one the decoder recovers.
	noisy := func(flipsPerBlock int, confidence float64) ([]float64, error) {
		for try := 0; try < 32; try++ {
			rx := append([]uint8(nil), coded...)
			for b := 0; b < sc.Blocks(); b++ {
				for _, j := range rng.Perm(code.N)[:flipsPerBlock] {
					rx[b*code.N+j] ^= 1
				}
			}
			llr := ldpc.HardLLR(rx, confidence)
			if sc.DecodeSectorInto(llr, 50, buf).OK {
				return llr, nil
			}
		}
		return nil, fmt.Errorf("no decodable pattern with %d flips per block", flipsPerBlock)
	}
	decode := func(llr []float64, err error) func(int) error {
		return func(int) error {
			if err != nil {
				return err
			}
			if res := sc.DecodeSectorInto(llr, 50, buf); !res.OK {
				return fmt.Errorf("sector decode failed")
			}
			return nil
		}
	}
	// Light noise takes the hard-decision and bit-flip tiers; six flips a
	// block push every block through full belief propagation.
	if err := l.rung("ldpc.decode_sector_us", l.n(400), decode(noisy(2, 4))); err != nil {
		return err
	}
	if err := l.rung("ldpc.decode_sector_bp_us", l.n(100), decode(noisy(6, 2))); err != nil {
		return err
	}

	// voxel: the full sector pipeline through the default channel.
	pipe := voxel.NewSectorPipeline(sc, voxel.DefaultChannel())
	scratch := pipe.AcquireScratch()
	defer pipe.ReleaseScratch(scratch)
	if err := l.rung("voxel.write_sector_us", l.n(400), func(int) error {
		pipe.WriteSectorWith(scratch, payload)
		return nil
	}); err != nil {
		return err
	}
	symbols := pipe.WriteSector(payload)
	noise := sim.NewRNG(ladderSeed)
	reads, fails := l.n(300), 0
	if err := l.rung("voxel.read_sector_us", reads, func(int) error {
		if res := pipe.ReadSectorWithBuf(scratch, symbols, noise, buf); !res.OK {
			fails++
		}
		return nil
	}); err != nil {
		return err
	}
	l.m["voxel.read_fail_frac"] = float64(fails) / float64(reads)

	// keystore: AES-256-CTR over a 4 KiB object.
	ks := keystore.New()
	if err := ks.CreateKey("ladder"); err != nil {
		return err
	}
	plain := randomBytes(rng, readObjectBytes)
	var ct []byte
	if err := l.rung("keystore.encrypt_us", l.n(400), func(int) error {
		ct, err = ks.Encrypt("ladder", plain)
		return err
	}); err != nil {
		return err
	}
	return l.rung("keystore.decrypt_us", l.n(400), func(int) error {
		_, err := ks.Decrypt("ladder", ct)
		return err
	})
}

// persistRung: one WAL append plus group-commit fsync of a 4 KiB put
// record, the durability cost of one acknowledged Put.
func (l *ladder) persistRung(dir string, rng *rand.Rand) error {
	log, _, err := persist.Open(persist.Options{Dir: dir, Fingerprint: "silica-bench-ladder"})
	if err != nil {
		return err
	}
	defer log.Close()
	ct, key := randomBytes(rng, readObjectBytes+keystore.Overhead), randomBytes(rng, 32)
	return l.rung("persist.append_sync_us", l.n(200), func(i int) error {
		name := fmt.Sprintf("o%05d", i)
		if _, err := log.Append(&persist.RecPut{
			Account: account, Name: name, Version: 1, Size: readObjectBytes,
			KeyID: name + "#k", Key: key, Ciphertext: ct, OpSeq: uint64(i),
		}); err != nil {
			return err
		}
		return log.Sync()
	})
}

// flushFacts is what the flush reconciliation needs from the ladder's
// measured flushes.
type flushFacts struct {
	wallS, cpuS            float64
	userBytes              float64
	encSectors, decSectors float64
	verifyS, phasesTotal   float64
}

// singleLibrary climbs service → gateway in-process → gateway over
// HTTP on one library with the workloads' pinned configuration. Each
// rung puts and reads back its own objects, deletes all but a platter's
// share of them, and flushes (the flush rung, four flushes in all: the
// fourth completes a 4+2 platter-set). It then reads the glass back
// healthy and degraded and probes the foreground stall a flush causes.
func (l *ladder) singleLibrary(dir string, rng *rand.Rand) (ff flushFacts, err error) {
	st, err := newSingleStack(dir)
	if err != nil {
		return ff, err
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	svc, gw := st.svc(), st.gws[0]
	calls, keep := l.n(100), l.n(30)

	// flush is the flush rung: service.Flush with the codec counters and
	// CPU time around it, accumulated over the four flushes.
	flush := func(kept []*object) error {
		before, err := scrape(st)
		if err != nil {
			return err
		}
		cpu0 := cpuSeconds()
		us, err := l.time("service.flush", 1, func(int) error { return svc.Flush() })
		if err != nil {
			return err
		}
		ff.cpuS += cpuSeconds() - cpu0
		after, err := scrape(st)
		if err != nil {
			return err
		}
		d := delta{before, after}
		ff.wallS += us[0] / 1e6
		ff.userBytes += float64(len(kept) * readObjectBytes)
		ff.encSectors += d.sum("silica_codec_sectors_total", "op", "encode")
		ff.decSectors += d.sum("silica_codec_sectors_total", "op", "decode")
		ff.verifyS += d.sum("silica_flush_phase_seconds_sum", "phase", "verify")
		ff.phasesTotal += d.sum("silica_flush_phase_seconds_sum")
		return nil
	}
	readBack := func(name string, objs []*object, get func(account, name string) ([]byte, error)) error {
		return l.rung(name, len(objs), func(i int) error {
			o := objs[i]
			got, err := get(o.account, o.name)
			if err == nil && !bytes.Equal(got, o.data) {
				err = fmt.Errorf("%s/%s read back different bytes", o.account, o.name)
			}
			return err
		})
	}
	type api struct {
		prefix, putRung, getRung string
		put                      func(account, name string, data []byte) (int, error)
		get                      func(account, name string) ([]byte, error)
	}
	var onGlass [][]*object
	for _, a := range []api{
		{"svc", "service.put_us", "service.get_staged_us", svc.Put, svc.Get},
		{"gw", "gateway.inproc_put_us", "gateway.inproc_get_us", gw.Put, gw.Get},
		{"http", "gateway.http_put_us", "gateway.http_get_us", st.client.Put, st.client.Get},
		{"fill", "", "", svc.Put, nil}, // fourth platter: completes the set
	} {
		n := calls
		if a.putRung == "" {
			n = keep
		}
		objs := makeObjects(rng, a.prefix, n, readObjectBytes)
		put := func(i int) error { _, err := a.put(objs[i].account, objs[i].name, objs[i].data); return err }
		if a.putRung == "" {
			for i := range objs {
				if err := put(i); err != nil {
					return ff, err
				}
			}
		} else {
			if err := l.rung(a.putRung, n, put); err != nil {
				return ff, err
			}
			if err := readBack(a.getRung, objs, a.get); err != nil {
				return ff, err
			}
		}
		// Deleted-while-staged files are dropped by the flush, so only
		// keep objects reach glass however many calls the rung timed.
		for _, o := range objs[keep:] {
			if err := svc.Delete(o.account, o.name); err != nil {
				return ff, err
			}
		}
		if err := flush(objs[:keep]); err != nil {
			return ff, err
		}
		onGlass = append(onGlass, objs[:keep])
	}
	l.m["service.flush_s_per_user_mb"] = ff.wallS / (ff.userBytes / 1e6)
	if err := l.rung("gateway.http_null_us", l.n(200), func(int) error { _, err := st.client.Healthz(); return err }); err != nil {
		return ff, err
	}

	// Healthy glass, then one information platter of the completed set
	// failed and only the objects on it read.
	first := onGlass[0]
	twice := append(append([]*object(nil), first...), first...)
	if err := readBack("service.get_durable_us", twice, svc.Get); err != nil {
		return ff, err
	}
	v, err := svc.Metadata().Get(metadata.FileKey{Account: first[0].account, Name: first[0].name})
	if err != nil {
		return ff, err
	}
	if len(v.Extents) == 0 {
		return ff, fmt.Errorf("ladder object %s has no extent after flush", first[0].name)
	}
	failedID := v.Extents[0].Platter
	if err := svc.FailPlatter(failedID); err != nil {
		return ff, err
	}
	var onFailed []*object
	for _, o := range first {
		v, err := svc.Metadata().Get(metadata.FileKey{Account: o.account, Name: o.name})
		if err != nil {
			return ff, err
		}
		if len(v.Extents) == 1 && v.Extents[0].Platter == failedID {
			onFailed = append(onFailed, o)
		}
	}
	if want := l.n(20); len(onFailed) > want {
		onFailed = onFailed[:want]
	}
	recBefore := svc.Stats().PlatterRecovers
	if err := readBack("service.get_degraded_us", onFailed, svc.Get); err != nil {
		return ff, err
	}
	if svc.Stats().PlatterRecovers == recBefore {
		return ff, fmt.Errorf("degraded rung never crossed set recovery")
	}
	return ff, l.flushStall(st, rng)
}

// flushStall measures what a burning flush does to foreground Puts:
// while an explicit flush of ~0.25 MB runs, a client puts one 1 KiB
// object every 10 ms to a side account over HTTP. The pacing spreads
// the samples over the whole flush and keeps what they stage too small
// to prolong it. The timed workload phases never overlap a flush; this
// probe is where that stall stays visible.
func (l *ladder) flushStall(st *stack, rng *rand.Rand) error {
	for _, o := range makeObjects(rng, "stall", l.n(60), readObjectBytes) {
		if _, err := st.svc().Put(o.account, o.name, o.data); err != nil {
			return err
		}
	}
	flushed := make(chan error, 1)
	go func() { flushed <- st.gws[0].Flush() }()
	var ms []float64
	for _, o := range makeObjects(rng, "side", 200, clusterObjectBytes) {
		_, end := l.tr.begin("ladder.gateway.put_during_flush", 0, 0)
		t0 := time.Now()
		_, err := st.client.Put("side", o.name, o.data)
		dt := float64(time.Since(t0).Nanoseconds()) / 1e6
		end()
		if err != nil {
			<-flushed
			return err
		}
		select {
		case err := <-flushed:
			// This put may have outlived the flush: not a sample.
			l.m["gateway.put_during_flush_p50_ms"] = median(ms)
			return err
		case <-time.After(10 * time.Millisecond):
			ms = append(ms, dt)
		}
	}
	l.m["gateway.put_during_flush_p50_ms"] = median(ms)
	return <-flushed
}

// cluster climbs the router in-process and over HTTP with 1 KiB
// objects. Everything put is deleted again, so closing burns nothing.
func (l *ladder) cluster(dir string, rng *rand.Rand) (err error) {
	st, err := newClusterStack(dir, true)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	n := l.n(150)
	inproc, overHTTP := makeObjects(rng, "inproc", n, clusterObjectBytes), makeObjects(rng, "http", n, clusterObjectBytes)
	check := func(o *object, got []byte, err error) error {
		if err == nil && string(got) != string(o.data) {
			err = fmt.Errorf("%s/%s read back different bytes", o.account, o.name)
		}
		return err
	}
	steps := []struct {
		name string
		objs []*object
		fn   func(o *object) error
	}{
		{"cluster.inproc_put_us", inproc, func(o *object) error { _, err := st.router.Put(o.account, o.name, o.data); return err }},
		{"cluster.inproc_get_us", inproc, func(o *object) error { got, err := st.router.Get(o.account, o.name); return check(o, got, err) }},
		{"cluster.inproc_delete_us", inproc, func(o *object) error { return st.router.Delete(o.account, o.name) }},
		{"cluster.http_put_us", overHTTP, func(o *object) error { _, err := st.client.Put(o.account, o.name, o.data); return err }},
		{"cluster.http_get_us", overHTTP, func(o *object) error { got, err := st.client.Get(o.account, o.name); return check(o, got, err) }},
		{"cluster.http_delete_us", overHTTP, func(o *object) error { return st.client.Delete(o.account, o.name) }},
	}
	for _, s := range steps {
		m0, r0 := walSyncs(st)
		if err := l.rung(s.name, len(s.objs), func(i int) error { return s.fn(s.objs[i]) }); err != nil {
			return err
		}
		if s.name == "cluster.http_put_us" {
			// Primary, replica and placement record: three serial fsyncs.
			m1, r1 := walSyncs(st)
			l.m["cluster.fsyncs_per_put"] = float64(m1-m0+r1-r0) / float64(len(s.objs))
		}
	}
	delete(l.m, "cluster.inproc_delete_us") // clean-up, not a reported rung
	return nil
}

// twin: one read charged through the wall-pumped digital twin at a
// pinned speedup. ROADMAP item 4 records the pump as non-repeatable, so
// the rung carries its own spread (IQR over median).
func (l *ladder) twin() error {
	cfg := backend.DefaultTwinLibrary(media.TinyGeometry())
	cfg.Platters = 256
	cfg.Seed = 7
	tw, err := backend.NewTwin(backend.TwinConfig{Library: cfg, Speedup: 1e6})
	if err != nil {
		return err
	}
	defer tw.Close()
	ctx := context.Background()
	us, err := l.time("backend.twin_read", l.n(100), func(i int) error {
		_, err := tw.Do(ctx, backend.Op{Kind: backend.OpRead, Platter: media.PlatterID(i * 17), TrackCount: 1})
		return err
	})
	if err != nil {
		return err
	}
	med := median(us)
	l.m["backend.twin_read_us"] = med
	l.m["backend.twin_read_spread_frac"] = (percentile(us, 0.75) - percentile(us, 0.25)) / med
	return nil
}

// reconcile subtracts each rung from the one above it and checks the
// top of each path against a small cost model built from the layers
// measured alone; what the model cannot account for is the unexplained
// remainder.
func (l *ladder) reconcile(ff flushFacts) {
	m := l.m
	say := func(format string, args ...any) { l.lines = append(l.lines, fmt.Sprintf(format, args...)) }

	// Put, 4 KiB, one library, persist on.
	httpSelf := m["gateway.http_put_us"] - m["gateway.inproc_put_us"]
	queueSelf := m["gateway.inproc_put_us"] - m["service.put_us"]
	leavesPut := m["keystore.encrypt_us"] + m["persist.append_sync_us"]
	svcSelf := m["service.put_us"] - leavesPut
	modelPut := m["gateway.http_null_us"] + leavesPut
	m["reconcile.put_unexplained_frac"] = 1 - modelPut/m["gateway.http_put_us"]
	say("put 4KiB: gateway.http_put_us %.0f = http self %.0f (null round trip %.0f) + gateway queue self %.0f + service.put_us %.0f",
		m["gateway.http_put_us"], httpSelf, m["gateway.http_null_us"], queueSelf, m["service.put_us"])
	say("put 4KiB: service.put_us %.0f = keystore.encrypt_us %.0f + persist.append_sync_us %.0f + service self %.0f; model (null + encrypt + append_sync) %.0f, unexplained %.3f",
		m["service.put_us"], m["keystore.encrypt_us"], m["persist.append_sync_us"], svcSelf, modelPut, m["reconcile.put_unexplained_frac"])

	// Staged get: the request path alone.
	say("get staged 4KiB: gateway.http_get_us %.0f = http self %.0f + gateway queue self %.0f + service.get_staged_us %.0f",
		m["gateway.http_get_us"], m["gateway.http_get_us"]-m["gateway.inproc_get_us"],
		m["gateway.inproc_get_us"]-m["service.get_staged_us"], m["service.get_staged_us"])

	// Durable get: sectors of the object through the voxel read path.
	sectors := float64(sectorsFor(readObjectBytes))
	modelGet := sectors*m["voxel.read_sector_us"] + m["keystore.decrypt_us"]
	m["reconcile.get_unexplained_frac"] = 1 - modelGet/m["service.get_durable_us"]
	say("get durable 4KiB: service.get_durable_us %.0f vs model %.0f sectors x voxel.read_sector_us %.0f (of which ldpc.decode_sector_us %.0f) + keystore.decrypt_us %.0f = %.0f, unexplained %.3f",
		m["service.get_durable_us"], sectors, m["voxel.read_sector_us"], m["ldpc.decode_sector_us"], m["keystore.decrypt_us"], modelGet, m["reconcile.get_unexplained_frac"])
	say("get degraded 4KiB: service.get_degraded_us %.0f = %.1fx durable; nc.reconstruct_set_us %.0f per sector of it",
		m["service.get_degraded_us"], m["service.get_degraded_us"]/m["service.get_durable_us"], m["nc.reconstruct_set_us"])

	// Flush: CPU seconds against sectors encoded and decoded.
	userSectors := ff.userBytes / readObjectBytes * sectors
	tracks := ff.encSectors / float64(media.TinyGeometry().SectorsPerTrack())
	modelFlush := (ff.encSectors*m["voxel.write_sector_us"] + ff.decSectors*m["voxel.read_sector_us"] + tracks*m["nc.encode_track_us"]) / 1e6
	m["reconcile.flush_unexplained_frac"] = 1 - modelFlush/ff.cpuS
	say("flush %.2f MB: wall %.2fs, cpu %.2fs; %.0f user sectors -> %.0f encoded (%.1fx) at voxel.write_sector_us %.0f, %.0f decoded (%.1fx) at voxel.read_sector_us %.0f; model cpu %.2fs, unexplained %.3f",
		ff.userBytes/1e6, ff.wallS, ff.cpuS, userSectors, ff.encSectors, ff.encSectors/userSectors, m["voxel.write_sector_us"],
		ff.decSectors, ff.decSectors/userSectors, m["voxel.read_sector_us"], modelFlush, m["reconcile.flush_unexplained_frac"])
	say("flush: burn runs at %.1f MB/s of sectors encoded but the flush at %.2f MB/s of user bytes because verify read-back is %.0f%% of the phase time and every user sector costs %.1f sector decodes",
		ff.encSectors*1000/1e6/(ff.encSectors*m["voxel.write_sector_us"]/1e6), ff.userBytes/1e6/ff.wallS,
		100*ratio(ff.verifyS, ff.phasesTotal), ff.decSectors/userSectors)
}
