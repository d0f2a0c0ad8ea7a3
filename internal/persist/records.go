package persist

import (
	"silica/internal/media"
	"silica/internal/metadata"
)

// Record is one typed WAL entry. Every mutating path of the service
// appends its record *before* acknowledging the operation; replaying
// records in LSN order over the latest snapshot reconstructs the exact
// pre-crash state. Record application is idempotent (overwrite/
// converge semantics), which is what lets snapshots be taken fuzzily
// while traffic continues: a mutation captured by the snapshot whose
// record lands after the snapshot's cut replays as a no-op.
//
// wire is the record body's layout, stated once for both directions
// (see coder).
type Record interface {
	recType() byte
	wire(*coder)
}

// recordTable is one WAL domain's tag space: it maps a frame's type
// tag to an empty record to decode the body into. A tag outside the
// table marks the frame corrupt.
type recordTable map[byte]func() Record

// Record type tags. Never renumber: they are the on-disk format.
const (
	tagPut         byte = 1
	tagDelete      byte = 2
	tagPublish     byte = 3
	tagSetComplete byte = 4
	tagDurable     byte = 5
	tagRelease     byte = 6
	_              byte = 7 // was RecRemap, written before SILSNP02: never reuse
	tagHealth      byte = 8
)

var serviceRecords = recordTable{
	tagPut:         func() Record { return new(RecPut) },
	tagDelete:      func() Record { return new(RecDelete) },
	tagPublish:     func() Record { return new(RecPublish) },
	tagSetComplete: func() Record { return new(RecSetComplete) },
	tagDurable:     func() Record { return new(RecDurable) },
	tagRelease:     func() Record { return new(RecRelease) },
	tagHealth:      func() Record { return new(RecHealth) },
}

// Sub-layouts carried by both a WAL record and a snapshot are stated
// here, once, and called from each.

func wireExtent(x *metadata.Extent, c *coder) {
	varint(&x.Platter, c)
	c.int(&x.FirstSector)
	c.int(&x.SectorCount)
	c.int(&x.Shard)
}

func wirePlatterIDs(ids *[]media.PlatterID, c *coder) {
	slice(c, ids, varint[media.PlatterID])
}

// wirePlatterDesc is a platter's index entry: RecPublish leads with
// it and a snapshot's PlatterDesc is exactly it.
func wirePlatterDesc(c *coder, id *media.PlatterID, set, setPos *int, redundancy *bool, used *int) {
	varint(id, c)
	c.int(set)
	c.int(setPos)
	c.bool(redundancy)
	c.int(used)
}

// RecPut is an acknowledged write: metadata version, staged ciphertext,
// and the encryption key material. The key must travel with the record
// — after a restart the in-memory keystore is gone, and ciphertext
// without its key is a completed delete, not a recovered write.
type RecPut struct {
	Account, Name string
	Version       int
	Size          int64 // plaintext size (metadata)
	KeyID         string
	Key           []byte
	Arrival       float64
	Ciphertext    []byte
	OpSeq         uint64 // key-id sequence value used; restored as a floor
}

func (*RecPut) recType() byte { return tagPut }

func (r *RecPut) wire(c *coder) {
	c.str(&r.Account)
	c.str(&r.Name)
	c.int(&r.Version)
	c.i64(&r.Size)
	c.str(&r.KeyID)
	c.bytes(&r.Key)
	c.f64(&r.Arrival)
	c.bytes(&r.Ciphertext)
	c.u64(&r.OpSeq)
}

// RecDelete is an acknowledged delete: pointer removal plus the key ids
// shredded. Replay removes exactly those keys, so a delete captured
// half-way by a fuzzy snapshot converges.
type RecDelete struct {
	Account, Name string
	KeyIDs        []string
}

func (*RecDelete) recType() byte { return tagDelete }

func (r *RecDelete) wire(c *coder) {
	c.str(&r.Account)
	c.str(&r.Name)
	slice(c, &r.KeyIDs, func(id *string, c *coder) { c.str(id) })
}

// RecPublish registers one verified platter in the index. The media's
// sectors live in the platter's sidecar blob (written and fsynced
// before this record is appended — record-implies-blob is a recovery
// invariant); the record carries the index metadata.
type RecPublish struct {
	Platter    media.PlatterID
	Set        int // pending-set index assigned at publish
	SetPos     int
	Redundancy bool
	Used       int // used info sectors
	Reason     string
	AtUnixNano int64
}

func (*RecPublish) recType() byte { return tagPublish }

func (r *RecPublish) wire(c *coder) {
	wirePlatterDesc(c, &r.Platter, &r.Set, &r.SetPos, &r.Redundancy, &r.Used)
	c.str(&r.Reason)
	c.i64(&r.AtUnixNano)
}

// RecSetComplete closes one platter-set: its full membership (info
// members then redundancy members) becomes a durable recovery group.
type RecSetComplete struct {
	Set     int
	Members []media.PlatterID
}

func (*RecSetComplete) recType() byte { return tagSetComplete }

func (r *RecSetComplete) wire(c *coder) {
	c.int(&r.Set)
	wirePlatterIDs(&r.Members, c)
}

// RecDurable marks one file version durable: extents recorded and the
// staged copy released, the final step of a successful flush for that
// file.
type RecDurable struct {
	Account, Name string
	Version       int
	Extents       []metadata.Extent
}

func (*RecDurable) recType() byte { return tagDurable }

func (r *RecDurable) wire(c *coder) {
	c.str(&r.Account)
	c.str(&r.Name)
	c.int(&r.Version)
	slice(c, &r.Extents, wireExtent)
}

// RecRelease frees a staged copy without marking it durable: the
// deleted-mid-write path, where the platter bytes are shredded
// ciphertext and only the staging space comes back.
type RecRelease struct {
	Account, Name string
	Version       int
}

func (*RecRelease) recType() byte { return tagRelease }

func (r *RecRelease) wire(c *coder) {
	c.str(&r.Account)
	c.str(&r.Name)
	c.int(&r.Version)
}

// RecHealth is one platter health transition, mirrored from the repair
// registry so suspect/failed/retired survive a restart — scrub
// prioritization and owed rebuilds are meaningless if a crash heals
// every platter.
type RecHealth struct {
	Platter    media.PlatterID
	From, To   int32 // repair.Health values
	Reason     string
	AtUnixNano int64
}

func (*RecHealth) recType() byte { return tagHealth }

func (r *RecHealth) wire(c *coder) {
	varint(&r.Platter, c)
	varint(&r.From, c)
	varint(&r.To, c)
	c.str(&r.Reason)
	c.i64(&r.AtUnixNano)
}
