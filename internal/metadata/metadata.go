// Package metadata implements the Silica metadata service (§6): a
// highly-available index, backed by warm media in production, mapping
// every file version to its within-library and within-platter
// addresses. Overwrites are logical (new versions over WORM media);
// deletes remove pointers. Each platter is additionally
// self-descriptive — its header lists the files it carries — so the
// index can be rebuilt by a platter-level scan if the service is lost.
package metadata

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"silica/internal/media"
)

// ErrNotFound is returned for unknown or deleted files.
var ErrNotFound = errors.New("metadata: file not found")

// ErrDeleted is returned when an operation targets a version that was
// deleted in the meantime — e.g. SetExtents racing a concurrent
// Delete. The write pipeline treats it as "drop the staged copy": the
// bytes on glass are crypto-shredded ciphertext.
var ErrDeleted = errors.New("metadata: version deleted")

// FileKey names a file within a customer account.
type FileKey struct {
	Account string
	Name    string
}

func (k FileKey) String() string { return k.Account + "/" + k.Name }

// compareKeys orders keys by their joined "account/name" form and
// breaks a tie — ("a/b", "c") and ("a", "b/c") join to one string — by
// account, so every ordering over keys is total and a dump's bytes do
// not depend on map order.
func compareKeys(a, b FileKey) int {
	return cmp.Or(strings.Compare(a.String(), b.String()), strings.Compare(a.Account, b.Account))
}

// FileState tracks where a version's bytes currently live.
type FileState int

const (
	// Staged: bytes are only in the staging tier, not yet durable in
	// glass.
	Staged FileState = iota
	// Durable: written to glass and verified; staging copy released.
	Durable
	// Deleted: pointers removed (and the key shredded by the service).
	Deleted
)

func (s FileState) String() string {
	switch s {
	case Staged:
		return "staged"
	case Durable:
		return "durable"
	case Deleted:
		return "deleted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Extent locates a contiguous run of information sectors on one
// platter. Information sectors are addressed linearly: position
// track*InfoSectorsPerTrack + indexWithinTrack, the order placement
// fills them in.
type Extent struct {
	Platter     media.PlatterID
	FirstSector int // linear information-sector position
	SectorCount int
	Shard       int // shard ordinal for large files sharded across platters
}

// Version is one immutable version of a file.
type Version struct {
	Version   int
	Size      int64
	State     FileState
	Extents   []Extent // read-only: the store replaces the slice, never writes it
	WriteTime float64  // virtual seconds; wall-clock in production
	KeyID     string   // keystore id protecting this version
}

// entry is the version chain of one file key.
type entry struct {
	versions []*Version // ascending by Version
}

// Store is the in-memory metadata service.
type Store struct {
	mu    sync.RWMutex
	files map[FileKey]*entry
}

// NewStore returns an empty metadata service.
func NewStore() *Store {
	return &Store{files: make(map[FileKey]*entry)}
}

// Put records a new version of key (version numbers start at 1 and
// overwrites append; WORM media keeps an old version's sectors on
// glass for good, and a delete shreds its key).
func (s *Store) Put(key FileKey, size int64, keyID string, writeTime float64) *Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.files[key]
	if e == nil {
		e = &entry{}
		s.files[key] = e
	}
	v := &Version{
		Version:   len(e.versions) + 1,
		Size:      size,
		State:     Staged,
		WriteTime: writeTime,
		KeyID:     keyID,
	}
	e.versions = append(e.versions, v)
	return v
}

// SetExtents records where a version landed in glass and marks it
// durable. Called by the write pipeline after verification succeeds.
func (s *Store) SetExtents(key FileKey, version int, extents []Extent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.versionLocked(key, version)
	if err != nil {
		return err
	}
	if v.State == Deleted {
		return fmt.Errorf("%w: %v v%d", ErrDeleted, key, version)
	}
	v.Extents = append([]Extent(nil), extents...)
	v.State = Durable
	return nil
}

// Get returns a copy of the latest live (non-deleted) version of key.
// The copy shares the stored Extents slice, which may be read without
// the lock since the store never writes it in place.
func (s *Store) Get(key FileKey) (*Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.files[key]
	if e == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	for i := len(e.versions) - 1; i >= 0; i-- {
		if e.versions[i].State != Deleted {
			cp := *e.versions[i]
			return &cp, nil
		}
	}
	return nil, fmt.Errorf("%w: %v (all versions deleted)", ErrNotFound, key)
}

// GetVersion returns a specific version, deleted or not.
func (s *Store) GetVersion(key FileKey, version int) (*Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, err := s.versionLocked(key, version)
	if err != nil {
		return nil, err
	}
	cp := *v
	return &cp, nil
}

func (s *Store) versionLocked(key FileKey, version int) (*Version, error) {
	e := s.files[key]
	if e == nil || version < 1 || version > len(e.versions) {
		return nil, fmt.Errorf("%w: %v v%d", ErrNotFound, key, version)
	}
	return e.versions[version-1], nil
}

// Delete marks every live version of key deleted (pointer removal) and
// returns the key IDs whose keys the caller must shred.
func (s *Store) Delete(key FileKey) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.files[key]
	if e == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	var keyIDs []string
	for _, v := range e.versions {
		if v.State != Deleted {
			v.State = Deleted
			keyIDs = append(keyIDs, v.KeyID)
		}
	}
	if len(keyIDs) == 0 {
		return nil, fmt.Errorf("%w: %v (already deleted)", ErrNotFound, key)
	}
	return keyIDs, nil
}

// RemapPlatter rewrites every extent pointing at platter old to point
// at platter new, preserving sector addresses — the replacement is a
// sector-exact copy. Used by automated rebuild to swap a failed
// platter for its reconstructed replacement in one atomic step; a Get
// racing the swap resolves either id, both of which serve identical
// bytes. A version's extents are copied before the rewrite, never
// written in place, since the copies Get and GetVersion return share
// the stored slice and are read without the lock. Returns the number
// of extents remapped.
func (s *Store) RemapPlatter(old, new media.PlatterID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.files {
		for _, v := range e.versions {
			var remapped []Extent
			for i, x := range v.Extents {
				if x.Platter != old {
					continue
				}
				if remapped == nil {
					remapped = slices.Clone(v.Extents)
				}
				remapped[i].Platter = new
				n++
			}
			if remapped != nil {
				v.Extents = remapped
			}
		}
	}
	return n
}

// HeaderEntry is one line of a platter's self-descriptive header.
type HeaderEntry struct {
	Key     FileKey
	Version int
	Size    int64
	KeyID   string
	Extent  Extent
}

// PlatterHeader builds the self-descriptive header for a platter: the
// list of file extents it carries. Nothing writes it to glass yet; the
// §6 header track is pending.
func (s *Store) PlatterHeader(p media.PlatterID) []HeaderEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []HeaderEntry
	for key, e := range s.files {
		for _, v := range e.versions {
			for _, x := range v.Extents {
				if x.Platter == p {
					out = append(out, HeaderEntry{
						Key: key, Version: v.Version, Size: v.Size, KeyID: v.KeyID, Extent: x,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := compareKeys(out[i].Key, out[j].Key); c != 0 {
			return c < 0
		}
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		return out[i].Extent.Shard < out[j].Extent.Shard
	})
	return out
}

// RebuildFromHeaders reconstructs a metadata store from platter
// headers, the §6 disaster path: "a file can still be located within
// the service after a platter-level scan of libraries, should the
// metadata service be unavailable". Versions found in headers are
// durable by definition (headers are written with the data).
func RebuildFromHeaders(headers [][]HeaderEntry) *Store {
	s := NewStore()
	type vkey struct {
		key     FileKey
		version int
	}
	built := map[vkey]*Version{}
	for _, h := range headers {
		for _, he := range h {
			vk := vkey{he.Key, he.Version}
			v := built[vk]
			if v == nil {
				e := s.files[he.Key]
				if e == nil {
					e = &entry{}
					s.files[he.Key] = e
				}
				for len(e.versions) < he.Version {
					e.versions = append(e.versions, &Version{
						Version: len(e.versions) + 1,
						State:   Deleted, // placeholder for gaps
					})
				}
				v = e.versions[he.Version-1]
				v.State = Durable
				v.Size = he.Size
				v.KeyID = he.KeyID
				v.Extents = nil
				built[vk] = v
			}
			v.Extents = append(v.Extents, he.Extent)
		}
	}
	// Keep shard order deterministic.
	for _, v := range built {
		sort.Slice(v.Extents, func(i, j int) bool { return v.Extents[i].Shard < v.Extents[j].Shard })
	}
	return s
}

// FileDump is one key's complete version chain, the unit of metadata
// export for persistence snapshots.
type FileDump struct {
	Key      FileKey
	Versions []Version
}

// Export copies the full store contents, sorted by key for determinism.
// Extent slices are deep-copied so the dump is immune to later mutation.
func (s *Store) Export() []FileDump {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]FileDump, 0, len(s.files))
	for key, e := range s.files {
		d := FileDump{Key: key, Versions: make([]Version, len(e.versions))}
		for i, v := range e.versions {
			cp := *v
			cp.Extents = append([]Extent(nil), v.Extents...)
			d.Versions[i] = cp
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return compareKeys(out[i].Key, out[j].Key) < 0 })
	return out
}

// RestoreVersion places v at its exact version index in key's chain,
// growing the chain with Deleted placeholders if needed and overwriting
// whatever occupies the slot. Recovery replay applies records in LSN
// order, which may differ from version order for concurrent Puts; the
// explicit index makes the result order-independent, and overwrite
// semantics make re-applying a record already reflected in a fuzzy
// snapshot converge instead of conflict.
func (s *Store) RestoreVersion(key FileKey, v Version) {
	if v.Version < 1 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.files[key]
	if e == nil {
		e = &entry{}
		s.files[key] = e
	}
	for len(e.versions) < v.Version {
		e.versions = append(e.versions, &Version{
			Version: len(e.versions) + 1,
			State:   Deleted, // placeholder for gaps
		})
	}
	cp := v
	cp.Extents = append([]Extent(nil), v.Extents...)
	e.versions[v.Version-1] = &cp
}

// Files reports the number of file keys with at least one live version.
func (s *Store) Files() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.files {
		for _, v := range e.versions {
			if v.State != Deleted {
				n++
				break
			}
		}
	}
	return n
}
