// Package faults is a deterministic, seedable fault-injection layer
// for the serving stack: the mechanism behind "as many scenarios as
// you can imagine". A Rule names an injection point (an op such as
// media.write, optionally narrowed to a platter/track/sector) and a
// failure mode — a typed error, added latency, or partial corruption
// of the bytes in flight. Rules are armed at daemon start (silicad
// -fault) or at runtime (POST /v1/faults) and evaluated by an
// Injector embedded in the service's hot paths.
//
// Determinism: counter-based triggers (every/after/count) fire on
// exact match ordinals, independent of scheduling; probabilistic
// triggers draw from a single seeded RNG, so a serial workload
// replays bit-identically for a given seed. A nil *Injector is valid
// and injects nothing, so the data path pays one pointer check when
// fault injection is disabled.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/obs"
)

// ErrInjected is the root of every injected error; call sites and
// tests detect injected failures with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faults: injected failure")

// Injection-point ops wired into the stack. An op names a pipeline
// stage, not a function: every path that performs the operation
// checks the same op, so a rule written against the op catches the
// foreground read path, the scrubber, and the rebuilder alike.
const (
	OpMediaRead      = "media.read"      // sector read before decode (reads, recovery, rebuild)
	OpMediaWrite     = "media.write"     // sector write during burn (flush, set close, rebuild)
	OpStagingReserve = "staging.reserve" // staging capacity reservation in Put
	OpFlushBatch     = "flush.batch"     // start of one flush round
	OpFlushBurn      = "flush.burn"      // start of one platter's burn
	OpFlushVerify    = "flush.verify"    // start of one platter's verification
	OpFlushPublish   = "flush.publish"   // start of one batch's publish phase
	OpPublishPlatter = "publish.platter" // publish of one verified platter (kill points land mid-publish)
	OpPersistAppend  = "persist.append"  // one WAL record append, pre-ack (bytes = the framed record)
	OpPersistSync    = "persist.sync"    // one WAL fsync batch
	OpClusterPlace   = "cluster.place"   // router directory placement record, post-mutate pre-ack
	OpClusterDelete  = "cluster.delete"  // router delete intent/completion record, pre-ack
	OpClusterMember  = "cluster.member"  // router membership record (add/kill/rebuild/drain)
)

// Failure modes.
const (
	ModeError   = "error"   // return a typed error from the op
	ModeLatency = "latency" // sleep before the op proceeds
	ModePartial = "partial" // corrupt the op's in-flight bytes
	// ModeKill invokes the injector's kill hook: silicad installs a hard
	// os.Exit so the process dies at the op — a deterministic kill -9 —
	// while in-process crash tests install a WAL freeze instead. If the
	// hook returns (or none is installed), the op fails with an injected
	// error so the caller unwinds without acknowledging, which is the
	// closest in-process approximation of dying mid-call.
	ModeKill = "kill"
)

// Rule is one armed fault. Zero selector fields (Platter/Track/
// Sector = -1) match anything. Triggers compose: a rule fires on a
// matching op when the match ordinal is past After, on the Every'th
// match (1 = every match), under Prob (1 or 0 = always), and at most
// Count times (0 = unlimited).
type Rule struct {
	Op      string  `json:"op"`
	Platter int64   `json:"platter"` // -1 = any
	Track   int     `json:"track"`   // -1 = any
	Sector  int     `json:"sector"`  // -1 = any
	Mode    string  `json:"mode"`
	Err     string  `json:"err,omitempty"` // error class; "" = generic injected
	Latency string  `json:"latency,omitempty"`
	Prob    float64 `json:"prob,omitempty"`
	Every   int     `json:"every,omitempty"`
	After   int     `json:"after,omitempty"`
	Count   int     `json:"count,omitempty"`
}

// latencyDur parses the rule's Latency field (Go duration syntax).
func (r Rule) latencyDur() (time.Duration, error) {
	if r.Latency == "" {
		return 0, nil
	}
	return time.ParseDuration(r.Latency)
}

// Validate reports whether the rule is well-formed.
func (r Rule) Validate() error {
	if r.Op == "" {
		return fmt.Errorf("faults: rule needs an op")
	}
	switch r.Mode {
	case ModeError, ModePartial, ModeKill:
	case ModeLatency:
		if d, err := r.latencyDur(); err != nil || d <= 0 {
			return fmt.Errorf("faults: latency rule needs a positive latency, got %q", r.Latency)
		}
	default:
		return fmt.Errorf("faults: unknown mode %q", r.Mode)
	}
	if !(r.Prob >= 0 && r.Prob <= 1) { // also rejects NaN
		return fmt.Errorf("faults: prob %v out of [0,1]", r.Prob)
	}
	if r.Every < 0 || r.After < 0 || r.Count < 0 {
		return fmt.Errorf("faults: negative trigger in %+v", r)
	}
	if _, err := r.latencyDur(); err != nil {
		return fmt.Errorf("faults: bad latency %q: %v", r.Latency, err)
	}
	return nil
}

// String renders the rule in the flag/endpoint grammar parsed by
// ParseRule: comma-separated key=value pairs.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "op=%s", r.Op)
	if r.Platter >= 0 {
		fmt.Fprintf(&b, ",platter=%d", r.Platter)
	}
	if r.Track >= 0 {
		fmt.Fprintf(&b, ",track=%d", r.Track)
	}
	if r.Sector >= 0 {
		fmt.Fprintf(&b, ",sector=%d", r.Sector)
	}
	fmt.Fprintf(&b, ",mode=%s", r.Mode)
	if r.Err != "" {
		fmt.Fprintf(&b, ",err=%s", r.Err)
	}
	if r.Latency != "" {
		fmt.Fprintf(&b, ",latency=%s", r.Latency)
	}
	if r.Prob > 0 {
		fmt.Fprintf(&b, ",prob=%g", r.Prob)
	}
	if r.Every > 0 {
		fmt.Fprintf(&b, ",every=%d", r.Every)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ",after=%d", r.After)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, ",count=%d", r.Count)
	}
	return b.String()
}

// ParseRule parses the compact rule grammar used by silicad -fault
// and POST /v1/faults, e.g.
//
//	op=media.write,mode=error,every=7,count=5
//	op=staging.reserve,mode=error,err=capacity,prob=0.2
//	op=media.read,platter=3,mode=latency,latency=5ms
//	op=media.write,track=0,sector=1,mode=partial
//
// A compact kill-point form puts the mode and op first:
//
//	kill@flush.publish:after=3
//	partial@persist.append:every=5
//
// which is shorthand for op=flush.publish,mode=kill,after=3 etc. —
// the grammar used to arm crash points for recovery testing.
//
// Unset selectors default to "any" (-1).
func ParseRule(s string) (Rule, error) {
	r := Rule{Platter: -1, Track: -1, Sector: -1}
	// mode@op[:k=v,...] compact form.
	if at := strings.Index(s, "@"); at >= 0 && !strings.Contains(s[:at], "=") {
		mode, rest := s[:at], s[at+1:]
		op := rest
		var opts string
		if colon := strings.IndexAny(rest, ":,"); colon >= 0 {
			op, opts = rest[:colon], rest[colon+1:]
		}
		if mode == "" || op == "" {
			return r, fmt.Errorf("faults: bad compact rule %q (want mode@op[:k=v,...])", s)
		}
		s = "op=" + op + ",mode=" + mode
		if opts != "" {
			s += "," + opts
		}
	}
	for _, field := range strings.FieldsFunc(s, func(c rune) bool { return c == ',' || c == ' ' || c == ';' }) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return r, fmt.Errorf("faults: %q is not key=value", field)
		}
		var err error
		switch k {
		case "op":
			r.Op = v
		case "platter":
			r.Platter, err = strconv.ParseInt(v, 10, 64)
		case "track":
			r.Track, err = strconv.Atoi(v)
		case "sector":
			r.Sector, err = strconv.Atoi(v)
		case "mode":
			r.Mode = v
		case "err":
			r.Err = v
		case "latency":
			r.Latency = v
		case "prob":
			r.Prob, err = strconv.ParseFloat(v, 64)
		case "every":
			r.Every, err = strconv.Atoi(v)
		case "after":
			r.After, err = strconv.Atoi(v)
		case "count":
			r.Count, err = strconv.Atoi(v)
		default:
			return r, fmt.Errorf("faults: unknown rule key %q", k)
		}
		if err != nil {
			return r, fmt.Errorf("faults: bad %s value %q: %v", k, v, err)
		}
	}
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// RuleStatus is a Snapshot entry: the rule plus its trigger history.
type RuleStatus struct {
	Rule    Rule  `json:"rule"`
	Matches int64 `json:"matches"` // ops that matched the selectors
	Fires   int64 `json:"fires"`   // injections actually performed
}

type armedRule struct {
	Rule
	latency time.Duration
	matches int64
	fires   int64
}

// Injector evaluates armed rules at the stack's injection points.
// All methods are safe for concurrent use and valid on a nil
// receiver (no rules, no overhead beyond the nil check).
type Injector struct {
	// armed mirrors len(rules) so the no-rules fast path — the common
	// case on every sector of every read — is one atomic load.
	armed atomic.Int32

	mu      sync.Mutex
	rules   []*armedRule
	rng     *splitmix
	seed    uint64
	total   int64
	classes map[string]error // error class name -> typed error
	killFn  func()           // ModeKill hook; see SetKill

	// injected is the obs counter mirror of total; per-op counters are
	// registered lazily as ops fire.
	reg      *obs.Registry
	injected *obs.Counter
	byOp     map[string]*obs.Counter
}

// splitmix is a tiny seeded generator (SplitMix64): enough for
// reproducible probabilistic rules without dragging in a dependency.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// New returns an empty injector whose probabilistic decisions replay
// deterministically for a given seed.
func New(seed uint64) *Injector {
	return &Injector{
		rng:     &splitmix{state: seed},
		seed:    seed,
		classes: make(map[string]error),
		byOp:    make(map[string]*obs.Counter),
	}
}

// Instrument registers the injector's counters in reg
// (silica_faults_injected_total, labeled by op).
func (i *Injector) Instrument(reg *obs.Registry) {
	if i == nil || reg == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.reg = reg
	i.injected = reg.Counter("silica_faults_injected_total",
		"Faults injected by internal/faults rules.", obs.L("op", "all"))
}

// SetKill installs the hook fired by kill-mode rules. silicad installs
// a hard os.Exit (a deterministic stand-in for kill -9 at an exact
// pipeline point); in-process crash tests install a persist-log freeze
// so everything after the kill point is provably not durable. If the
// hook returns, the checked op fails with an injected error.
func (i *Injector) SetKill(fn func()) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.killFn = fn
	i.mu.Unlock()
}

// MapError binds an error class name usable in a rule's err= field to
// a typed error, so injected failures surface through the stack's
// normal retryable signals (e.g. "capacity" -> staging.ErrCapacity).
// The embedding layer registers its own classes at construction.
func (i *Injector) MapError(class string, err error) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.classes[class] = err
	i.mu.Unlock()
}

// Arm validates and adds a rule.
func (i *Injector) Arm(r Rule) error {
	if i == nil {
		return fmt.Errorf("faults: injector disabled")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	d, _ := r.latencyDur()
	i.mu.Lock()
	i.rules = append(i.rules, &armedRule{Rule: r, latency: d})
	i.armed.Store(int32(len(i.rules)))
	i.mu.Unlock()
	return nil
}

// ArmString parses and arms one rule in the ParseRule grammar.
func (i *Injector) ArmString(s string) error {
	r, err := ParseRule(s)
	if err != nil {
		return err
	}
	return i.Arm(r)
}

// Clear disarms every rule (trigger history included).
func (i *Injector) Clear() {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.rules = nil
	i.armed.Store(0)
	i.mu.Unlock()
}

// Snapshot reports the armed rules and their trigger history.
func (i *Injector) Snapshot() []RuleStatus {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]RuleStatus, len(i.rules))
	for k, ar := range i.rules {
		out[k] = RuleStatus{Rule: ar.Rule, Matches: ar.matches, Fires: ar.fires}
	}
	return out
}

// Total reports the number of faults injected since construction.
func (i *Injector) Total() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.total
}

// Check evaluates the armed rules against one op. It sleeps for
// latency-mode rules and returns the typed error of the first
// error-mode rule that fires (always wrapping ErrInjected). Selector
// -1 on the caller side means "this op has no such coordinate".
func (i *Injector) Check(op string, platter int64, track, sector int) error {
	return i.CheckData(op, platter, track, sector, nil)
}

// CheckData is Check for ops carrying bytes: a partial-mode rule that
// fires corrupts data in place (deterministically, from the
// injector's seed and the rule's fire ordinal) instead of erroring,
// modeling torn writes and bit rot rather than clean failures.
func (i *Injector) CheckData(op string, platter int64, track, sector int, data []byte) error {
	if i == nil || i.armed.Load() == 0 {
		return nil
	}
	var sleep time.Duration
	var injErr error
	var kill func()
	i.mu.Lock()
	for _, ar := range i.rules {
		if ar.Op != op {
			continue
		}
		if ar.Platter >= 0 && ar.Platter != platter {
			continue
		}
		if ar.Track >= 0 && ar.Track != track {
			continue
		}
		if ar.Sector >= 0 && ar.Sector != sector {
			continue
		}
		ar.matches++
		if !i.shouldFire(ar) {
			continue
		}
		ar.fires++
		i.total++
		i.countFire(op)
		switch ar.Mode {
		case ModeLatency:
			sleep += ar.latency
		case ModePartial:
			if data != nil {
				i.corrupt(data, ar)
			}
		case ModeKill:
			kill = i.killFn
			if injErr == nil {
				injErr = fmt.Errorf("%w: killed at %s", ErrInjected, op)
			}
		default: // ModeError
			if injErr == nil {
				injErr = i.buildErr(ar, op, platter, track, sector)
			}
		}
	}
	i.mu.Unlock()
	if kill != nil {
		// Outside the injector lock: the hook may exit the process or
		// freeze the persistence log, both of which touch other locks.
		kill()
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	return injErr
}

// shouldFire applies the rule's triggers to its current match
// ordinal; call with i.mu held.
func (i *Injector) shouldFire(ar *armedRule) bool {
	if ar.Count > 0 && ar.fires >= int64(ar.Count) {
		return false
	}
	ordinal := ar.matches - int64(ar.After) // 1-based past the skip window
	if ordinal <= 0 {
		return false
	}
	if ar.Every > 1 && ordinal%int64(ar.Every) != 0 {
		return false
	}
	if ar.Prob > 0 && ar.Prob < 1 && i.rng.float64() >= ar.Prob {
		return false
	}
	return true
}

// buildErr resolves the rule's error class; call with i.mu held.
func (i *Injector) buildErr(ar *armedRule, op string, platter int64, track, sector int) error {
	where := op
	if platter >= 0 {
		where = fmt.Sprintf("%s platter=%d", where, platter)
	}
	if track >= 0 {
		where = fmt.Sprintf("%s track=%d sector=%d", where, track, sector)
	}
	if class, ok := i.classes[ar.Err]; ok && class != nil {
		return fmt.Errorf("%w: %w at %s", ErrInjected, class, where)
	}
	return fmt.Errorf("%w: %s at %s", ErrInjected, ModeError, where)
}

// corrupt flips a deterministic sprinkle of len(data)/64 bits (at
// least 8) at pseudo-random positions, so partial faults defeat the
// sector CRC without erasing the whole payload; call with i.mu held.
// On media ops data is a sector as stored, two voxel symbols a byte:
// every flip lands on a live symbol. A byte-per-symbol sector, twice as
// long, drew twice the flips and wasted half of them on unused high
// bits, so the expected number of corrupted symbols is the same.
func (i *Injector) corrupt(data []byte, ar *armedRule) {
	if len(data) == 0 {
		return
	}
	r := splitmix{state: i.seed ^ uint64(ar.fires)*0x9e3779b97f4a7c15}
	flips := len(data) / 64
	if flips < 8 {
		flips = 8
	}
	for k := 0; k < flips; k++ {
		pos := int(r.next() % uint64(len(data)))
		data[pos] ^= byte(1 << (r.next() % 8))
	}
}

// countFire bumps the obs counters for op; call with i.mu held.
// Per-op counters are registered on first fire (registration takes
// the registry lock, which is fine off the steady-state path).
func (i *Injector) countFire(op string) {
	if i.injected != nil {
		i.injected.Inc()
	}
	if i.reg == nil {
		return
	}
	c, ok := i.byOp[op]
	if !ok {
		c = i.reg.Counter("silica_faults_injected_total",
			"Faults injected by internal/faults rules.", obs.L("op", op))
		i.byOp[op] = c
	}
	c.Inc()
}
