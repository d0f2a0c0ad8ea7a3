package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"silica/internal/metadata"
)

// opKind is a client operation class. Phases never mix kinds, so every
// latency distribution is one mode.
type opKind int

const (
	opPut opKind = iota
	opGet
	opDelete
	numOpKinds
)

func (k opKind) String() string { return [...]string{"put", "get", "delete"}[k] }

// object is one pre-generated input: its key and the payload every Get
// of it is compared against.
type object struct {
	account, name string
	data          []byte
}

// median returns the median of xs (mean of the middle two when even),
// 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// span is one benchmark-side trace record: a timed interval around a
// call into the program, its parent, and the client op it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Op     int64  `json:"op"`     // client op id shared by an op's spans, 0 for phases
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Recording is gated
// by on, so the same code path runs traced and untraced rounds.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64 // span ids and client op ids
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it. With
// tracing off both cost one atomic load.
func (t *tracer) begin(name string, parent, op int64) (id int64, end func()) {
	if !t.on.Load() {
		return 0, func() {}
	}
	id = t.nextID.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		sp := span{ID: id, Parent: parent, Op: op, Name: name,
			Start: start.Nanoseconds(), End: time.Since(t.t0).Nanoseconds()}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// phaseResult is one timed phase: a fixed list of same-kind ops split
// statically between the closed-loop clients.
type phaseResult struct {
	kind   opKind
	wall   float64   // seconds, first send to last reply
	lat    []float64 // ms per op, all clients
	sent   []float64 // ms from the phase's start to each op's send
	bytes  int64     // user payload bytes moved
	sects  int64     // information sectors those bytes occupy on glass
	failed int
}

// runPhase drives objs through the stack's HTTP client with numClients
// closed-loop clients; client c takes ops c, c+numClients, ... so the
// split is identical run to run. Every Get reply is compared
// byte-for-byte with the object's payload; any error or mismatch is a
// failed op. wantGone inverts the Get check: the reply must be
// NotFound. When tracing, the phase is a span and every client call a
// child of it.
func runPhase(st *stack, tr *tracer, kind opKind, objs []*object, wantGone bool) phaseResult {
	res := phaseResult{kind: kind, lat: make([]float64, len(objs)), sent: make([]float64, len(objs))}
	var failed atomic.Int64
	var wg sync.WaitGroup
	phase, endPhase := tr.begin("phase."+kind.String(), 0, 0)
	start := time.Now()
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(objs); i += numClients {
				o := objs[i]
				_, end := tr.begin("client."+kind.String(), phase, tr.nextID.Add(1))
				t0 := time.Now()
				res.sent[i] = float64(t0.Sub(start).Nanoseconds()) / 1e6
				var err error
				switch kind {
				case opPut:
					_, err = st.client.Put(o.account, o.name, o.data)
				case opGet:
					var got []byte
					got, err = st.client.Get(o.account, o.name)
					switch {
					case wantGone && errors.Is(err, metadata.ErrNotFound):
						err = nil
					case wantGone:
						err = fmt.Errorf("get after delete of %s/%s: want NotFound, got err=%v", o.account, o.name, err)
					case err == nil && !bytes.Equal(got, o.data):
						err = fmt.Errorf("get %s/%s: %d bytes differ from the %d written", o.account, o.name, len(got), len(o.data))
					}
				case opDelete:
					err = st.client.Delete(o.account, o.name)
				}
				res.lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				end()
				if err != nil {
					if failed.Add(1) == 1 {
						fmt.Fprintf(os.Stderr, "silica-bench: first failed op: %v\n", err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	endPhase()
	res.failed = int(failed.Load())
	if kind != opDelete && !wantGone {
		for _, o := range objs {
			res.bytes += int64(len(o.data))
			res.sects += int64(sectorsFor(len(o.data)))
		}
	}
	return res
}

// walSyncs reads the WAL fsync counters: the members' logs and the
// router's own.
func walSyncs(st *stack) (members, router int64) {
	const name = "silica_persist_wal_syncs_total"
	for _, g := range st.gws {
		members += g.Metrics().Counter(name, "").Value()
	}
	if st.router != nil {
		router = st.router.Metrics().Counter(name, "").Value()
	}
	return members, router
}

// timedPuts is a put phase that also counts the WAL fsyncs it caused.
func timedPuts(st *stack, tr *tracer, rr *roundResult, objs []*object) phaseResult {
	m0, _ := walSyncs(st)
	p := runPhase(st, tr, opPut, objs, false)
	m1, _ := walSyncs(st)
	rr.putSyncs += m1 - m0
	rr.add(p)
	return p
}

// roundResult is one round of identical-size work.
type roundResult struct {
	traced    bool
	wall      float64 // seconds of timed phases (client ops + explicit flush)
	flushS    float64 // explicit flush seconds within wall
	userBytes int64   // payload bytes put or got
	putBytes  int64   // the put share of userBytes
	sectors   int64   // information sectors userBytes occupy on glass
	ops       int     // timed client ops
	checked   int     // untimed correctness ops (audits, get-after-delete)
	failed    int
	cpuS      float64
	allocB    uint64
	lat       [numOpKinds][]float64 // ms from send to ack, per kind
	// commit is ms from a Put's send to the return of the flush that
	// burned it (ingest only): the archive's time-to-durable.
	commit   []float64
	putSyncs int64 // library WAL fsyncs during the put phases
}

func (r *roundResult) add(p phaseResult) {
	r.wall += p.wall
	r.userBytes += p.bytes
	if p.kind == opPut {
		r.putBytes += p.bytes
	}
	r.sectors += p.sects
	r.ops += len(p.lat)
	r.failed += p.failed
	r.lat[p.kind] = append(r.lat[p.kind], p.lat...)
}

// pool is a set of rounds measured as one: the fastest two of a run, or
// all of it.
type pool []*roundResult

func (p pool) goodput() float64 {
	var bytes, wall float64
	for _, r := range p {
		bytes += float64(r.userBytes)
		wall += r.wall
	}
	return ratio(bytes/1e6, wall)
}

func (p pool) cpuPerMB() float64 {
	var cpu, bytes float64
	for _, r := range p {
		cpu += r.cpuS
		bytes += float64(r.userBytes)
	}
	return ratio(cpu, bytes/1e6)
}

func (p pool) allocPerByte() float64 {
	var alloc, bytes float64
	for _, r := range p {
		alloc += float64(r.allocB)
		bytes += float64(r.userBytes)
	}
	return ratio(alloc, bytes)
}

// opPercentile is the q-quantile of the workload's client operation:
// the sum over the op kinds issued of that kind's quantile — one get on
// the read workloads, one put plus one get plus one delete on
// cluster_small — or, where rounds commit (ingest), of time-to-durable.
// Each quantile is taken per round and the median over the pool's
// rounds reported: a burst inside one of the pooled rounds then moves
// nothing, where pooling the samples would put it straight into the
// tail (and would put ingest's p50 on the gap between two flush times).
func (p pool) opPercentile(q float64) float64 {
	overRounds := func(samples func(r *roundResult) []float64) float64 {
		var qs []float64
		for _, r := range p {
			if s := samples(r); len(s) > 0 {
				qs = append(qs, percentile(s, q))
			}
		}
		return median(qs)
	}
	if commit := overRounds(func(r *roundResult) []float64 { return r.commit }); commit > 0 {
		return commit
	}
	var sum float64
	for k := opKind(0); k < numOpKinds; k++ {
		sum += overRounds(func(r *roundResult) []float64 { return r.lat[k] })
	}
	return sum
}

// fastRounds is how many rounds the timings are computed over.
const fastRounds = 2

// fastest picks the fastRounds rounds with the highest goodput.
// Interference on a shared host only ever slows a round, and rounds are
// identical work, so the fast rounds are the ones that measured the
// program rather than the neighbours: best-of-N, with N the round count.
// Two rather than a third of the rounds, because the host's slow spells
// often outlast two thirds of a run: over the same per-round data of ten
// runs the spread of every timing was narrower, or as narrow, the fewer
// rounds were kept (README, "Design rules"); two rather than one, so that
// one lucky round (few within-track repairs) is not the whole estimate.
func fastest(rounds []*roundResult) pool {
	sorted := append(pool(nil), rounds...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return pool{sorted[i]}.goodput() > pool{sorted[j]}.goodput()
	})
	if len(sorted) > fastRounds {
		sorted = sorted[:fastRounds]
	}
	return sorted
}

// sectorsFor is the information sectors one object of size bytes
// occupies: ciphertext (payload + IV) over 1000-byte sector payloads.
func sectorsFor(size int) int { return (size + 16 + 999) / 1000 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
