package persist

import (
	"fmt"
	"time"

	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/repair"
	"silica/internal/staging"
)

// PlatterDesc is one published platter's index entry in a snapshot.
// The media's sectors live in the platter's sidecar blob; the snapshot
// only references it.
type PlatterDesc struct {
	ID         media.PlatterID
	Set        int
	SetPos     int
	Redundancy bool
	Used       int // used info sectors
}

// HealthDump is one platter's repair-registry entry: current health
// and full transition history. Where the platter sits is its
// PlatterDesc and the set list's, nowhere else.
type HealthDump struct {
	Platter media.PlatterID
	Health  repair.Health
	History []repair.Transition
}

// SnapshotData is the full durable state of the service at a cut LSN:
// everything the four in-memory authorities (metadata store, platter
// index, staging tier, health registry) hold, plus the counters whose
// loss would corrupt future operations (the key-id sequence and the
// platter-id allocator).
type SnapshotData struct {
	// Fingerprint names the codec configuration (geometry, LDPC shape,
	// NC scheme, seed). A snapshot taken under one configuration cannot
	// be opened under another: the stored sectors would not decode.
	Fingerprint string
	OpSeq       uint64
	NextPlatter media.PlatterID
	Meta        []metadata.FileDump
	Keys        map[string][]byte
	Staged      []*staging.File
	Platters    []PlatterDesc
	Sets        [][]media.PlatterID
	PendingSet  []media.PlatterID
	Health      []HealthDump
}

// Snapshot file format: magic | cut LSN | body | crc32 trailer (the
// sealTo envelope). The file is written atomically (temp + fsync +
// rename), so a crash mid-snapshot leaves the previous snapshot
// untouched. Both domains' snapshot bodies open with the fingerprint.
// A snapshot under any other magic, "SILSNP01" and "SILSNP02" included,
// does not decode, so a directory holding only such snapshots is
// refused: its log may hold records whose tags are now reserved.
const snapMagic = "SILSNP03"

func snapName(cut uint64) string {
	return fmt.Sprintf("snap-%016x.db", cut)
}

// wireSnapshot is what either snapshot format seals: the cut LSN, then
// the domain's body.
func wireSnapshot(cut *uint64, body func(*coder)) func(*coder) {
	return func(c *coder) {
		c.u64(cut)
		body(c)
	}
}

func (s *SnapshotData) wire(c *coder) {
	c.str(&s.Fingerprint)
	c.u64(&s.OpSeq)
	varint(&s.NextPlatter, c)
	slice(c, &s.Meta, wireFileDump)
	sortedMap(c, &s.Keys,
		func(a, b string) bool { return a < b },
		func(id *string, key *[]byte, c *coder) { c.str(id); c.bytes(key) })
	slice(c, &s.Staged, wireStagedFile)
	slice(c, &s.Platters, (*PlatterDesc).wire)
	slice(c, &s.Sets, wirePlatterIDs)
	wirePlatterIDs(&s.PendingSet, c)
	slice(c, &s.Health, (*HealthDump).wire)
}

func wireFileKey(k *metadata.FileKey, c *coder) {
	c.str(&k.Account)
	c.str(&k.Name)
}

func wireFileDump(fd *metadata.FileDump, c *coder) {
	wireFileKey(&fd.Key, c)
	slice(c, &fd.Versions, func(v *metadata.Version, c *coder) {
		c.int(&v.Version)
		c.i64(&v.Size)
		varint(&v.State, c)
		c.f64(&v.WriteTime)
		c.str(&v.KeyID)
		slice(c, &v.Extents, wireExtent)
	})
}

func wireStagedFile(p **staging.File, c *coder) {
	if c.decoding {
		*p = &staging.File{}
	}
	f := *p
	wireFileKey(&f.Key, c)
	c.int(&f.Version)
	c.i64(&f.Size)
	c.f64(&f.Arrival)
	c.bytes(&f.Data)
}

// wire is the layout a RecPublish leads with, too.
func (p *PlatterDesc) wire(c *coder) {
	varint(&p.ID, c)
	c.int(&p.Set)
	c.int(&p.SetPos)
	c.bool(&p.Redundancy)
	c.int(&p.Used)
}

func (h *HealthDump) wire(c *coder) {
	varint(&h.Platter, c)
	varint(&h.Health, c)
	slice(c, &h.History, func(tr *repair.Transition, c *coder) {
		c.str(&tr.From)
		c.str(&tr.To)
		c.str(&tr.Reason)
		var at int64 // Unix nanoseconds
		if !c.decoding {
			at = tr.At.UnixNano()
		}
		c.i64(&at)
		if c.decoding {
			tr.At = time.Unix(0, at)
		}
	})
}
