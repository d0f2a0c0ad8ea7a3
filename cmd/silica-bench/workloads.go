package main

import (
	"fmt"
	"math/rand"
	"time"

	"silica/internal/media"
	"silica/internal/metadata"
)

const account = "bench"

// sizing fixes the work. A round is always the same ops; -seconds
// changes how many rounds run, never what a round is.
type sizing struct {
	seconds int  // requested measured-phase length on the reference box
	setups  int  // set-up repetitions; setup_s is the fastest
	quick   bool // one round at ~1/20 size: schema check only
}

// rounds is how many rounds of roundSeconds (a round's length on the
// quiet 2-core reference box) fill the measured phase; never fewer than
// three, so the fastest two are a choice.
func (sz sizing) rounds(roundSeconds float64) int {
	if sz.quick {
		return 1
	}
	n := int(float64(sz.seconds)/roundSeconds + 0.5)
	if n < 3 {
		n = 3
	}
	return n
}

// n is a per-round or preload count: base, or ~1/20 of it when quick.
func (sz sizing) n(base int) int {
	if !sz.quick {
		return base
	}
	n := (base + 19) / 20
	if n < 1 {
		n = 1
	}
	return n
}

// workload is one fixed, seeded op list and the checks that go with it.
type workload interface {
	clustered() bool
	// prepare generates every input from the seed (untimed).
	prepare(rng *rand.Rand, sz sizing)
	// setup preloads a fresh stack and runs a miniature of the measured
	// phase as warm-up; all of it counts in setup_s.
	setup(st *stack, tr *tracer) (attempted, failed int, err error)
	// numRounds is fixed by prepare; round runs round r's fixed work.
	numRounds() int
	round(st *stack, tr *tracer, r int) (roundResult, error)
	// verify runs after the rounds with the registry deltas of the
	// measured phase; a violated invariant fails the run. It may
	// replace the stack (ingest reopens it).
	verify(st *stack, run *runState) (*stack, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest":
		return &ingest{}, nil
	case "durable_read":
		return &readWorkload{batches: 1, perBatch: 120, getsPerRound: 170, warmGets: 60}, nil
	case "degraded_read":
		return &readWorkload{degraded: true, batches: 4, perBatch: 44, getsPerRound: 36, warmGets: 12}, nil
	case "cluster_small":
		return &clusterSmall{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest|durable_read|degraded_read|cluster_small|all)", name)
}

func makeObjects(rng *rand.Rand, prefix string, n, size int) []*object {
	objs := make([]*object, n)
	for i := range objs {
		data := make([]byte, size)
		rng.Read(data)
		objs[i] = &object{account: account, name: fmt.Sprintf("%s/o%05d", prefix, i), data: data}
	}
	return objs
}

func shuffled(rng *rand.Rand, objs []*object) []*object {
	out := append([]*object(nil), objs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sampleWithReplacement draws n objects uniformly from pool.
func sampleWithReplacement(rng *rand.Rand, pool []*object, n int) []*object {
	out := make([]*object, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// timedFlush is the explicit flush that ends a write round: the stated
// flush policy, issued over HTTP like any operator would.
func timedFlush(st *stack, tr *tracer, rr *roundResult) error {
	_, end := tr.begin("client.flush", 0, 0)
	t0 := time.Now()
	err := st.client.Flush()
	dt := time.Since(t0).Seconds()
	end()
	rr.flushS += dt
	rr.wall += dt
	return err
}

// ---- ingest ---------------------------------------------------------

// ingest: each round two clients put a seeded mix of small and large
// objects, then one explicit Flush turns them into verified glass. The
// large share is 23 % of the puts, so p50 sits inside the small-object
// mode and p90 inside the large-object mode, never on the boundary.
type ingest struct {
	warm   []*object
	rounds [][]*object
}

const (
	ingestSmall      = 80 // x 4 KiB per round at factor 1
	ingestLarge      = 24 // x 16 KiB
	ingestSmallBytes = 4 << 10
	ingestLargeBytes = 16 << 10
)

func (w *ingest) clustered() bool { return false }
func (w *ingest) numRounds() int  { return len(w.rounds) }

func (w *ingest) mix(rng *rand.Rand, prefix string, small, large int) []*object {
	objs := makeObjects(rng, prefix+"s", small, ingestSmallBytes)
	objs = append(objs, makeObjects(rng, prefix+"l", large, ingestLargeBytes)...)
	return shuffled(rng, objs)
}

func (w *ingest) prepare(rng *rand.Rand, sz sizing) {
	w.warm = w.mix(rng, "warm", sz.n(ingestSmall/2), sz.n(ingestLarge/2))
	// A round is 808 sectors: four platters, so every round closes
	// exactly one 4+2 platter-set and burns its two redundancy platters.
	w.rounds = make([][]*object, sz.rounds(2.4)) // a round is ~3 s; ingest gets the time its cheap set-up leaves
	for r := range w.rounds {
		w.rounds[r] = w.mix(rng, fmt.Sprintf("r%d", r), sz.n(ingestSmall), sz.n(ingestLarge))
	}
}

func (w *ingest) setup(st *stack, tr *tracer) (int, int, error) {
	p := runPhase(st, tr, opPut, w.warm, false)
	return len(w.warm), p.failed, st.client.Flush()
}

func (w *ingest) round(st *stack, tr *tracer, r int) (roundResult, error) {
	var rr roundResult
	p := timedPuts(st, tr, &rr, w.rounds[r])
	err := timedFlush(st, tr, &rr)
	rr.commit = make([]float64, len(p.sent))
	for i, sent := range p.sent {
		rr.commit[i] = rr.wall*1e3 - sent
	}
	return rr, err
}

// verify closes the library, reopens it on the same directory and reads
// a seeded 1-in-8 sample of everything written back byte-exact: an
// acknowledged, flushed write must survive a restart.
func (w *ingest) verify(st *stack, run *runState) (*stack, error) {
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("ingest: close before reopen: %w", err)
	}
	t0 := time.Now()
	reopened, err := newSingleStack(st.dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: reopen %s: %w", st.dir, err)
	}
	run.recoveryS = time.Since(t0).Seconds()
	var sample []*object
	for _, objs := range w.rounds {
		for i, o := range objs {
			if i%8 == run.auditPhase {
				sample = append(sample, o)
			}
		}
	}
	p := runPhase(reopened, run.tr, opGet, sample, false)
	run.auditAttempted += len(sample)
	run.auditFailed += p.failed
	if p.failed > 0 {
		return reopened, fmt.Errorf("ingest: %d of %d audited objects unreadable or different after reopen", p.failed, len(sample))
	}
	return reopened, nil
}

// ---- durable_read / degraded_read -----------------------------------

// readWorkload preloads 4 KiB objects onto glass and reads them back.
// The preload is put and flushed in batches. Durable uses one batch of
// 120 objects (2.7 platters: no platter-set completes, so set-up burns
// no redundancy platters). Degraded uses four batches of one platter's
// worth each (44 objects x 5 sectors of a 224-sector platter), which
// completes exactly one 4+2 platter-set; it then fails one information
// platter of the set and reads only the objects on that platter, so
// every Get crosses set recovery.
type readWorkload struct {
	degraded     bool
	batches      int // preload batches, one flush each
	perBatch     int // objects per batch
	getsPerRound int
	warmGets     int

	sz      sizing
	seed    int64
	preload [][]*object
	warm    []*object
	rounds  [][]*object
}

const readObjectBytes = 4 << 10

func (w *readWorkload) clustered() bool { return false }
func (w *readWorkload) numRounds() int  { return w.sz.rounds(1) }

func (w *readWorkload) prepare(rng *rand.Rand, sz sizing) {
	w.sz = sz
	per := sz.n(w.perBatch)
	w.preload = make([][]*object, w.batches)
	var all []*object
	for b := range w.preload {
		w.preload[b] = makeObjects(rng, fmt.Sprintf("pre%d", b), per, readObjectBytes)
		all = append(all, w.preload[b]...)
	}
	w.seed = rng.Int63()
	if !w.degraded {
		w.drawRounds(all)
	}
}

// drawRounds fixes the Get lists from pool. The degraded pool depends
// on which platter is failed, so it is drawn in setup from a seed fixed
// in prepare.
func (w *readWorkload) drawRounds(pool []*object) {
	rng := rand.New(rand.NewSource(w.seed))
	w.warm = sampleWithReplacement(rng, pool, w.sz.n(w.warmGets))
	w.rounds = make([][]*object, w.numRounds())
	for r := range w.rounds {
		w.rounds[r] = sampleWithReplacement(rng, pool, w.sz.n(w.getsPerRound))
	}
}

func (w *readWorkload) setup(st *stack, tr *tracer) (attempted, failed int, err error) {
	for _, batch := range w.preload {
		p := runPhase(st, tr, opPut, batch, false)
		attempted += len(batch)
		failed += p.failed
		if err := st.client.Flush(); err != nil {
			return attempted, failed, err
		}
	}
	if w.degraded {
		pool, err := w.failPlatter(st)
		if err != nil {
			return attempted, failed, err
		}
		w.drawRounds(pool)
	}
	g := runPhase(st, tr, opGet, w.warm, false)
	return attempted + len(w.warm), failed + g.failed, nil
}

// failPlatter fails one seeded information platter of the completed
// platter-set and returns the objects with an extent on it.
func (w *readWorkload) failPlatter(st *stack) ([]*object, error) {
	svc := st.svc()
	var info []media.PlatterID
	for _, p := range svc.ListPlatters() { // sorted by id
		if p.Set == 0 && !p.Redundancy {
			info = append(info, p.ID)
		}
	}
	if len(info) == 0 {
		return nil, fmt.Errorf("degraded_read: preload completed no platter-set")
	}
	id := info[rand.New(rand.NewSource(w.seed^0x5e7)).Intn(len(info))]
	if err := svc.FailPlatter(id); err != nil {
		return nil, err
	}
	var pool []*object
	for _, batch := range w.preload {
		for _, o := range batch {
			v, err := svc.Metadata().Get(metadata.FileKey{Account: o.account, Name: o.name})
			if err != nil {
				return nil, err
			}
			for _, e := range v.Extents {
				if e.Platter == id {
					pool = append(pool, o)
					break
				}
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("degraded_read: no object has an extent on failed platter %d", id)
	}
	return pool, nil
}

func (w *readWorkload) round(st *stack, tr *tracer, r int) (roundResult, error) {
	var rr roundResult
	rr.add(runPhase(st, tr, opGet, w.rounds[r], false))
	return rr, nil
}

func (w *readWorkload) verify(st *stack, run *runState) (*stack, error) {
	rec := run.delta.sum("silica_read_recoveries_total", "tier", "set")
	switch {
	case w.degraded && rec == 0:
		return st, fmt.Errorf("degraded_read: no set recovery ran; the failed platters were never read")
	case !w.degraded && rec != 0:
		return st, fmt.Errorf("durable_read: %v set recoveries on healthy media", rec)
	}
	if staged := run.delta.sum("silica_service_reads_total", "source", "staged"); staged != 0 {
		return st, fmt.Errorf("read workload served %v reads from staging, want glass only", staged)
	}
	return st, nil
}

// ---- cluster_small --------------------------------------------------

// clusterSmall: each round puts N 1 KiB objects through the router,
// gets them all (from staging: nothing is flushed), deletes them all.
// Staging is empty at the end of every round, so no flush ever burns.
type clusterSmall struct {
	warm   [3][]*object
	rounds [][3][]*object // per round: put, get, delete order
	gone   [][]*object    // per round: seeded sample checked NotFound after the deletes
}

const (
	clusterObjects     = 4000 // per round
	clusterObjectBytes = 1 << 10
)

func (w *clusterSmall) clustered() bool { return true }
func (w *clusterSmall) numRounds() int  { return len(w.rounds) }

func (w *clusterSmall) prepare(rng *rand.Rand, sz sizing) {
	orders := func(objs []*object) [3][]*object {
		return [3][]*object{shuffled(rng, objs), shuffled(rng, objs), shuffled(rng, objs)}
	}
	w.warm = orders(makeObjects(rng, "warm", sz.n(clusterObjects), clusterObjectBytes))
	// Payloads are shared between rounds (names are not): a round's
	// objects are deleted before the next begins.
	data := makeObjects(rng, "r0", sz.n(clusterObjects), clusterObjectBytes)
	// A round is ~1 s and the workload runs 16 of them, four more than
	// the read workloads: its set-up is cheap, and a longer window is more
	// likely to hold two rounds the host left alone.
	w.rounds = make([][3][]*object, sz.rounds(0.75))
	w.gone = make([][]*object, len(w.rounds))
	for r := range w.rounds {
		objs := make([]*object, len(data))
		for i, d := range data {
			objs[i] = &object{account: account, name: fmt.Sprintf("r%d/o%05d", r, i), data: d.data}
		}
		w.rounds[r] = orders(objs)
		for i := rng.Intn(64); i < len(objs); i += 64 {
			w.gone[r] = append(w.gone[r], objs[i])
		}
	}
}

func (w *clusterSmall) cycle(st *stack, tr *tracer, o [3][]*object) roundResult {
	var rr roundResult
	rr.add(runPhase(st, tr, opPut, o[0], false))
	rr.add(runPhase(st, tr, opGet, o[1], false))
	rr.add(runPhase(st, tr, opDelete, o[2], false))
	return rr
}

func (w *clusterSmall) setup(st *stack, tr *tracer) (int, int, error) {
	rr := w.cycle(st, tr, w.warm)
	return rr.ops, rr.failed, nil
}

func (w *clusterSmall) round(st *stack, tr *tracer, r int) (roundResult, error) {
	rr := w.cycle(st, tr, w.rounds[r])
	// Untimed: an acknowledged delete stays gone.
	gone := runPhase(st, tr, opGet, w.gone[r], true)
	rr.checked += len(w.gone[r])
	rr.failed += gone.failed
	// Untimed round-boundary flush: drops the deleted files from staging
	// (burning nothing) so every round starts from the same state.
	return rr, st.router.Flush()
}

func (w *clusterSmall) verify(st *stack, run *runState) (*stack, error) {
	gets := 0
	for _, r := range w.rounds {
		gets += len(r[1])
	}
	staged := run.delta.sum("silica_service_reads_total", "source", "staged")
	durable := run.delta.sum("silica_service_reads_total", "source", "durable")
	if int(staged) != gets || durable != 0 {
		return st, fmt.Errorf("cluster_small: %v staged and %v durable reads for %d gets, want all staged", staged, durable, gets)
	}
	for i, g := range st.gws {
		if b := g.Service().StagedBytes(); b != 0 {
			return st, fmt.Errorf("cluster_small: lib-%d still stages %d bytes after the last delete and flush", i, b)
		}
		if n := g.Service().Stats().PlattersWritten; n != 0 {
			return st, fmt.Errorf("cluster_small: lib-%d burned %d platters, want none", i, n)
		}
	}
	return st, nil
}
