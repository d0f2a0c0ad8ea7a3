package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/repair"
	"silica/internal/staging"
)

// PlatterState is one recovered platter: its snapshot/index descriptor
// plus its blob, opened and indexed, which is the recovered platter's
// glass (the service owns the descriptor from Open on).
type PlatterState struct {
	PlatterDesc
	Blob *Blob
}

// State is the recovered service state handed back by Open: the four
// authorities plus the counters, ready for the service layer to
// install. A fresh directory recovers to an empty State.
type State struct {
	OpSeq       uint64
	NextPlatter media.PlatterID
	Meta        *metadata.Store
	Keys        map[string][]byte
	Staged      []*staging.File
	Platters    []*PlatterState
	Sets        [][]media.PlatterID
	PendingSet  []media.PlatterID
	Health      []HealthDump

	// Records is the number of WAL records replayed over the snapshot;
	// Truncated reports whether replay stopped at a torn or corrupt
	// frame (everything after it was unacknowledged and is discarded).
	Records   int
	Truncated bool
}

// snapData converts the recovered state back into snapshot form, for
// the post-recovery snapshot Open writes so torn bytes and replayed
// logs never linger on disk.
func (st *State) snapData(fingerprint string) *SnapshotData {
	s := &SnapshotData{
		Fingerprint: fingerprint,
		OpSeq:       st.OpSeq,
		NextPlatter: st.NextPlatter,
		Meta:        st.Meta.Export(),
		Keys:        st.Keys,
		Staged:      st.Staged,
		Platters:    make([]PlatterDesc, len(st.Platters)),
		Sets:        st.Sets,
		PendingSet:  st.PendingSet,
		Health:      st.Health,
	}
	for i, p := range st.Platters {
		s.Platters[i] = p.PlatterDesc
	}
	return s
}

// builder is the service domain's replayer: it accumulates state
// while records replay. Lookups that the final State keeps as slices
// live in maps here.
type builder struct {
	dir         string
	fingerprint string
	state       *State // set by finish

	meta        *metadata.Store
	keys        map[string][]byte
	staged      ordered[staging.ID, *staging.File]
	platters    ordered[media.PlatterID, *PlatterState]
	sets        [][]media.PlatterID
	pending     map[int]media.PlatterID // setPos -> id, open set under assembly
	health      ordered[media.PlatterID, *HealthDump]
	opSeq       uint64
	nextPlatter media.PlatterID
}

// ordered is a map that keeps its keys in first-insertion order, so the
// recovered state's lists do not depend on map order.
type ordered[K comparable, V any] struct {
	m    map[K]V
	keys []K
}

func (o *ordered[K, V]) put(k K, v V) {
	if _, ok := o.m[k]; !ok {
		if o.m == nil {
			o.m = make(map[K]V)
		}
		o.keys = append(o.keys, k)
	}
	o.m[k] = v
}

// values lists the values in insertion order, skipping deleted keys.
func (o *ordered[K, V]) values() []V {
	var vs []V
	for _, k := range o.keys {
		if v, ok := o.m[k]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func newBuilder(opts Options) *builder {
	return &builder{
		dir:         opts.Dir,
		fingerprint: opts.Fingerprint,
		meta:        metadata.NewStore(),
		keys:        make(map[string][]byte),
		pending:     make(map[int]media.PlatterID),
	}
}

// load seeds the builder from a service snapshot body.
func (b *builder) load(c *coder) string {
	var snap SnapshotData
	if snap.wire(c); c.err != nil {
		return "" // a decode cut short leaves nil entries in snap.Staged
	}
	b.opSeq = snap.OpSeq
	b.nextPlatter = snap.NextPlatter
	for _, fd := range snap.Meta {
		for _, v := range fd.Versions {
			b.meta.RestoreVersion(fd.Key, v)
		}
	}
	for id, key := range snap.Keys {
		b.keys[id] = key
	}
	for _, f := range snap.Staged {
		b.staged.put(f.ID(), f)
	}
	for _, d := range snap.Platters {
		b.platters.put(d.ID, &PlatterState{PlatterDesc: d})
	}
	b.sets = make([][]media.PlatterID, len(snap.Sets))
	for i, members := range snap.Sets {
		b.sets[i] = append([]media.PlatterID(nil), members...)
	}
	for pos, id := range snap.PendingSet {
		b.pending[pos] = id
	}
	for _, h := range snap.Health {
		b.health.put(h.Platter, &h)
	}
	return snap.Fingerprint
}

func (b *builder) unstage(account, name string, version int) {
	delete(b.staged.m, staging.ID{Key: metadata.FileKey{Account: account, Name: name}, Version: version})
}

// apply replays one record. Application is idempotent: a record whose
// effect a fuzzy snapshot already captured converges instead of
// conflicting (see Record).
func (b *builder) apply(rec Record) {
	switch r := rec.(type) {
	case *RecPut:
		key := metadata.FileKey{Account: r.Account, Name: r.Name}
		// Preserve a later state (Durable/Deleted) the snapshot may have
		// captured; only install Staged when the version is new here.
		if v, err := b.meta.GetVersion(key, r.Version); err == nil && v.State != metadata.Staged {
			// Re-assert the immutable fields; keep the advanced state.
			v.Size, v.KeyID, v.WriteTime = r.Size, r.KeyID, r.Arrival
			b.meta.RestoreVersion(key, *v)
		} else {
			b.meta.RestoreVersion(key, metadata.Version{
				Version: r.Version, Size: r.Size, State: metadata.Staged,
				WriteTime: r.Arrival, KeyID: r.KeyID,
			})
			b.staged.put(staging.ID{Key: key, Version: r.Version}, &staging.File{
				Key: key, Version: r.Version, Size: int64(len(r.Ciphertext)),
				Arrival: r.Arrival, Data: r.Ciphertext,
			})
		}
		b.keys[r.KeyID] = r.Key
		if r.OpSeq > b.opSeq {
			b.opSeq = r.OpSeq
		}
	case *RecDelete:
		key := metadata.FileKey{Account: r.Account, Name: r.Name}
		b.meta.Delete(key)
		for _, kid := range r.KeyIDs {
			delete(b.keys, kid)
		}
	case *RecPublish:
		b.publish(r.PlatterDesc, r.Reason, r.AtUnixNano)
		// A publish into a completed set's position is a rebuild (see
		// replace). A fresh information platter joins the pending set.
		if r.Set < len(b.sets) {
			b.replace(r)
		} else {
			b.pending[r.SetPos] = r.ID
		}
	case *RecSetClose:
		for pos := max(len(r.Members)-r.Redundancy, 0); pos < len(r.Members); pos++ {
			b.publish(PlatterDesc{
				ID: r.Members[pos], Set: r.Set, SetPos: pos, Redundancy: true, Used: r.Used,
			}, r.Reason, r.AtUnixNano)
		}
		for len(b.sets) <= r.Set {
			b.sets = append(b.sets, nil)
		}
		b.sets[r.Set] = append([]media.PlatterID(nil), r.Members...)
		clear(b.pending) // a close takes the whole pending set
	case *RecDurable:
		key := metadata.FileKey{Account: r.Account, Name: r.Name}
		if v, err := b.meta.GetVersion(key, r.Version); err == nil && v.State != metadata.Deleted {
			v.State = metadata.Durable
			v.Extents = append([]metadata.Extent(nil), r.Extents...)
			b.meta.RestoreVersion(key, *v)
		}
		b.unstage(r.Account, r.Name, r.Version)
	case *RecRelease:
		b.unstage(r.Account, r.Name, r.Version)
	case *RecHealth:
		// Skip transitions the fuzzy snapshot already captured (the
		// current health has moved past `from`) or that history makes
		// illegal; both mean the in-memory registry never held them.
		if h, ok := b.health.m[r.Platter]; ok && h.Health == repair.Health(r.From) {
			h.transition(repair.Health(r.To), r.Reason, r.AtUnixNano)
		}
	}
}

// publish replays one platter's publication, as the live publish
// registers it: its index entry, the id allocator past it, and, unless a
// fuzzy snapshot already holds its health, a healthy history.
func (b *builder) publish(d PlatterDesc, reason string, atUnixNano int64) {
	b.platters.put(d.ID, &PlatterState{PlatterDesc: d})
	if d.ID >= b.nextPlatter {
		b.nextPlatter = d.ID + 1
	}
	if _, ok := b.health.m[d.ID]; !ok {
		b.health.put(d.ID, &HealthDump{
			Platter: d.ID, Health: repair.Healthy,
			History: []repair.Transition{{
				To: repair.Healthy.String(), Reason: reason, At: time.Unix(0, atUnixNano),
			}},
		})
	}
}

// transition moves h to health to, recording the edge, if the edge is
// legal.
func (h *HealthDump) transition(to repair.Health, reason string, atUnixNano int64) {
	if !repair.LegalTransition(h.Health, to) {
		return
	}
	h.History = append(h.History, repair.Transition{
		From: h.Health.String(), To: to.String(), Reason: reason, At: time.Unix(0, atUnixNano),
	})
	h.Health = to
}

// replace replays a rebuilt platter's publish, which is the whole
// rebuild, as the live publish does: the platter takes its set position,
// the member it displaces has its extents remapped to it and is retired.
// Replaying it over a state that already holds the platter there changes
// nothing.
func (b *builder) replace(r *RecPublish) {
	set, pos := r.Set, r.SetPos
	if set < 0 || pos < 0 || pos >= len(b.sets[set]) || b.sets[set][pos] == r.ID {
		return
	}
	old := b.sets[set][pos]
	remapped := b.meta.RemapPlatter(old, r.ID)
	b.sets[set][pos] = r.ID
	if h, ok := b.health.m[old]; ok {
		h.transition(repair.Retired, repair.RebuiltAs(r.ID, remapped), r.AtUnixNano)
	}
}

// finish normalizes the replayed state into a State and opens the
// surviving platters' blobs.
func (b *builder) finish(records int, truncated bool) (func(*coder), error) {
	st := &State{
		OpSeq:       b.opSeq,
		NextPlatter: b.nextPlatter,
		Meta:        b.meta,
		Keys:        b.keys,
		Sets:        b.sets,
		Records:     records,
		Truncated:   truncated,
	}

	// Open-set members, ordered by their assigned position.
	positions := make([]int, 0, len(b.pending))
	for pos := range b.pending {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		st.PendingSet = append(st.PendingSet, b.pending[pos])
	}
	st.Platters = b.platters.values()

	// Staged copies of versions that advanced past Staged are redundant:
	// durable versions read from glass, deleted versions are shredded
	// ciphertext. Arrival clocks restart at zero after recovery, so
	// restored files are stamped as oldest to keep flush order sane.
	for _, f := range b.staged.values() {
		if v, err := b.meta.GetVersion(f.Key, f.Version); err == nil && v.State != metadata.Staged {
			continue
		}
		f.Arrival = 0
		st.Staged = append(st.Staged, f)
	}

	for _, h := range b.health.values() {
		st.Health = append(st.Health, *h)
	}
	if err := st.loadBlobs(b.dir); err != nil {
		return nil, err
	}
	b.state = st
	return st.snapData(b.fingerprint).wire, nil
}

// sweepBlobs removes orphan blobs — platters no record publishes.
// They are crashes between blob write and record append; the platter
// was never acknowledged anywhere, so the bytes are garbage. Only safe
// during recovery: at runtime a fresh blob may precede its (imminent)
// record.
func (b *builder) sweepBlobs(onDisk []media.PlatterID) {
	live := make(map[media.PlatterID]bool, len(b.state.Platters))
	for _, p := range b.state.Platters {
		live[p.ID] = true
	}
	for _, id := range onDisk {
		if !live[id] {
			_ = os.Remove(filepath.Join(b.dir, blobName(id)))
		}
	}
}

var serviceDomain = domain[*builder]{
	holds:   "service state",
	magic:   snapMagic,
	records: serviceRecords,
	start:   newBuilder,
	sweep:   (*builder).sweepBlobs,
}

// Open recovers the service's persistence directory (see recoverDir):
// snapshot plus WAL replay into a State, platter blobs opened and
// indexed, orphan blobs swept.
func Open(opts Options) (*Log, *State, error) {
	l, b, err := recoverDir(opts, serviceDomain)
	if err != nil {
		if b != nil && b.state != nil {
			b.state.CloseBlobs()
		}
		return nil, nil, err
	}
	return l, b.state, nil
}

// loadBlobs opens every surviving platter's sidecar blob and indexes
// it from its header; no sector is read. A platter with a publish record
// but no blob, or one whose header fails its checks, is fatal
// corruption — the blob is written and fsynced before the record, so
// its absence means the disk lost durable bytes — and closes the blobs
// already opened.
func (st *State) loadBlobs(dir string) error {
	for _, p := range st.Platters {
		blob, err := openBlob(dir, p.ID)
		if err != nil {
			st.CloseBlobs()
			return fmt.Errorf("persist: platter %d has a publish record but no readable blob: %w", p.ID, err)
		}
		p.Blob = blob
	}
	return nil
}

// CloseBlobs closes every opened platter blob, for a recovery whose
// state will not be installed.
func (st *State) CloseBlobs() {
	for _, p := range st.Platters {
		if p.Blob != nil {
			_ = p.Blob.Close()
			p.Blob = nil
		}
	}
}
