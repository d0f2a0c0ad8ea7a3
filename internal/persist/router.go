package persist

import "sort"

// The cluster router's durability domain: the placement directory
// (which libraries hold each object's copies, pinned to member
// epochs), the membership roster, and the ring configuration. It
// reuses the service WAL machinery — CRC-framed appends, group-commit
// fsync, rotate-first fuzzy snapshots, torn-tail-tolerant replay —
// but with its own record tag space and snapshot format, because the
// router's authorities are maps of strings, not platters.
//
// The crash-consistency argument is the same as the service's (see
// the package comment): mutate in memory, append, fsync, then ack.
// Replay is idempotent per record — a place record overwrites, a
// tombstone marks, a delete removes, a member record upserts — so a
// mutation captured by a fuzzy snapshot whose record also replays
// converges to the same state.

// Router record type tags. A distinct space from the service tags
// (1-8) so a service WAL can never be mistaken for a router WAL even
// before the snapshot fingerprint check. Never renumber.
const (
	tagRingConfig   byte = 32
	tagDirPlace     byte = 33
	tagDirTombstone byte = 34
	tagDirDelete    byte = 35
	tagMember       byte = 36
	tagMemberRemove byte = 37
)

var routerRecords = recordTable{
	tagRingConfig:   func() Record { return new(RecRingConfig) },
	tagDirPlace:     func() Record { return new(RecDirPlace) },
	tagDirTombstone: func() Record { return new(RecDirTombstone) },
	tagDirDelete:    func() Record { return new(RecDirDelete) },
	tagMember:       func() Record { return new(RecMember) },
	tagMemberRemove: func() Record { return new(RecMemberRemove) },
}

// RecRingConfig seeds a fresh router directory with its ring
// parameters. Appended exactly once, before any placement; replay
// validates it against the opening router's own configuration, since
// a directory hashed under a different seed or vnode count would
// silently misroute every key.
type RecRingConfig struct {
	Seed   uint64
	VNodes int
}

func (*RecRingConfig) recType() byte { return tagRingConfig }

func (r *RecRingConfig) wire(c *coder) {
	c.u64(&r.Seed)
	c.int(&r.VNodes)
}

// RecDirPlace is one acknowledged placement: where both copies of a
// key live and the member epochs they were written under. Covers
// first placement, overwrite, and rebalance moves alike — replay is
// a straight upsert (and clears any delete intent). It is also the
// body of a snapshot's directory row (RouterEntry).
type RecDirPlace struct {
	Account, Name    string
	Primary, Replica string
	PEpoch, REpoch   uint64
	Version          int
	Size             int64
}

func (*RecDirPlace) recType() byte { return tagDirPlace }

func (r *RecDirPlace) wire(c *coder) {
	c.str(&r.Account)
	c.str(&r.Name)
	c.str(&r.Primary)
	c.str(&r.Replica)
	c.u64(&r.PEpoch)
	c.u64(&r.REpoch)
	c.int(&r.Version)
	c.i64(&r.Size)
}

// RecDirTombstone records delete *intent*, appended before any copy
// is touched. A crash between the tombstone and the final delete
// record recovers into a resumable half-delete: the entry survives
// with Deleting set, reads treat it as gone, and the next delete or
// reconcile pass finishes removing the copies.
type RecDirTombstone struct {
	Account, Name string
}

func (*RecDirTombstone) recType() byte { return tagDirTombstone }

func (r *RecDirTombstone) wire(c *coder) {
	c.str(&r.Account)
	c.str(&r.Name)
}

// RecDirDelete drops a directory entry: both copies are gone.
type RecDirDelete struct {
	Account, Name string
}

func (*RecDirDelete) recType() byte { return tagDirDelete }

func (r *RecDirDelete) wire(c *coder) {
	c.str(&r.Account)
	c.str(&r.Name)
}

// RecMember upserts one membership row: liveness and the rebuild
// epoch. Covers add (alive, epoch 0), kill (dead, same epoch), and
// rebuild (alive again, epoch+1) — whichever record holds the highest
// LSN wins, which is exactly replay order. A snapshot's membership
// roster is a list of the same rows.
type RecMember struct {
	Name  string
	Alive bool
	Epoch uint64
}

func (*RecMember) recType() byte { return tagMember }

func (r *RecMember) wire(c *coder) {
	c.str(&r.Name)
	c.bool(&r.Alive)
	c.u64(&r.Epoch)
}

// RecMemberRemove forgets a member entirely (the drain path).
type RecMemberRemove struct {
	Name string
}

func (*RecMemberRemove) recType() byte { return tagMemberRemove }

func (r *RecMemberRemove) wire(c *coder) { c.str(&r.Name) }

// RouterMember is one row of the membership roster: the member's
// latest RecMember.
type RouterMember = RecMember

// RouterEntry is one placement row of the directory: the placement
// last acknowledged for the key, plus whether a delete of it is under
// way.
type RouterEntry struct {
	RecDirPlace
	Deleting bool
}

func (en *RouterEntry) wire(c *coder) {
	en.RecDirPlace.wire(c)
	c.bool(&en.Deleting)
}

// RouterState is the router's durable state — what a snapshot holds
// and what recovery hands back: ring configuration, membership roster,
// and the full placement directory, plus recovery telemetry.
type RouterState struct {
	Fingerprint string
	Seed        uint64
	VNodes      int
	HasConfig   bool // a RecRingConfig (or snapshot) fixed Seed/VNodes
	Members     []RouterMember
	Entries     []RouterEntry
	Records     int  // WAL records replayed
	Truncated   bool // replay ended at a torn or corrupt frame
}

// Router snapshot file format: magic | cut LSN | fingerprint | ring
// config | members | entries | crc32 trailer. Same snap-*.db naming
// and atomic-write protocol as service snapshots; the magic keeps the
// two formats from ever decoding as each other.
const routerSnapMagic = "SILDIR01"

func (s *RouterState) wire(c *coder) {
	c.str(&s.Fingerprint)
	c.u64(&s.Seed)
	c.int(&s.VNodes)
	c.bool(&s.HasConfig)
	slice(c, &s.Members, (*RecMember).wire)
	slice(c, &s.Entries, (*RouterEntry).wire)
}

// sort orders Members by name and Entries by account then name, so
// recovered states compare equal and snapshots of equal states are
// byte-identical.
func (s *RouterState) sort() {
	sort.Slice(s.Members, func(i, j int) bool { return s.Members[i].Name < s.Members[j].Name })
	sort.Slice(s.Entries, func(i, j int) bool {
		if s.Entries[i].Account != s.Entries[j].Account {
			return s.Entries[i].Account < s.Entries[j].Account
		}
		return s.Entries[i].Name < s.Entries[j].Name
	})
}

type dirKey struct{ account, name string }

// routerBuilder is the router domain's replayer: members and entries
// replay into maps, and finish flattens them back into st.
type routerBuilder struct {
	st      RouterState
	members map[string]RouterMember
	entries map[dirKey]RouterEntry
}

func newRouterBuilder(opts Options) *routerBuilder {
	return &routerBuilder{
		st:      RouterState{Fingerprint: opts.Fingerprint},
		members: make(map[string]RouterMember),
		entries: make(map[dirKey]RouterEntry),
	}
}

// load seeds the builder from a router snapshot body.
func (b *routerBuilder) load(c *coder) string {
	b.st.wire(c)
	for _, m := range b.st.Members {
		b.members[m.Name] = m
	}
	for _, en := range b.st.Entries {
		b.entries[dirKey{en.Account, en.Name}] = en
	}
	return b.st.Fingerprint
}

func (b *routerBuilder) apply(rec Record) {
	switch r := rec.(type) {
	case *RecRingConfig:
		b.st.Seed, b.st.VNodes, b.st.HasConfig = r.Seed, r.VNodes, true
	case *RecDirPlace:
		b.entries[dirKey{r.Account, r.Name}] = RouterEntry{RecDirPlace: *r}
	case *RecDirTombstone:
		key := dirKey{r.Account, r.Name}
		if en, ok := b.entries[key]; ok {
			en.Deleting = true
			b.entries[key] = en
		}
	case *RecDirDelete:
		delete(b.entries, dirKey{r.Account, r.Name})
	case *RecMember:
		b.members[r.Name] = *r
	case *RecMemberRemove:
		delete(b.members, r.Name)
	}
}

func (b *routerBuilder) finish(records int, truncated bool) (func(*coder), error) {
	st := &b.st
	st.Records, st.Truncated = records, truncated
	st.Members = make([]RouterMember, 0, len(b.members))
	for _, m := range b.members {
		st.Members = append(st.Members, m)
	}
	st.Entries = make([]RouterEntry, 0, len(b.entries))
	for _, en := range b.entries {
		st.Entries = append(st.Entries, en)
	}
	st.sort()
	return st.wire, nil
}

var routerDomain = domain[*routerBuilder]{
	holds:   "a router directory",
	magic:   routerSnapMagic,
	records: routerRecords,
	start:   newRouterBuilder,
}

// OpenRouter recovers a router persistence directory (see recoverDir).
// The returned Log shares all the service log's append/sync/snapshot
// machinery; commit router snapshots through CommitRouterSnapshot.
func OpenRouter(opts Options) (*Log, *RouterState, error) {
	l, b, err := recoverDir(opts, routerDomain)
	if err != nil {
		return nil, nil, err
	}
	return l, &b.st, nil
}

// CommitRouterSnapshot is CommitSnapshot for the router's snapshot
// format: atomically writes the exported directory + membership for
// cut and garbage-collects superseded snapshots and WAL files. It
// sorts st, so callers may export in map order.
func (l *Log) CommitRouterSnapshot(cut uint64, st *RouterState) error {
	st.Fingerprint = l.fingerprint
	st.sort()
	return l.commitSnapshot(cut, routerSnapMagic, st.wire)
}
