package staging

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"silica/internal/metadata"
)

func file(account, name string, size int64, arrival float64) *File {
	return &File{
		Key:     metadata.FileKey{Account: account, Name: name},
		Version: 1,
		Size:    size,
		Arrival: arrival,
	}
}

// admit stages f the way Service.PutCtx does: reserve its size, then
// turn the reservation into staged bytes.
func admit(tier *Tier, f *File) error {
	if err := tier.Reserve(f.Size); err != nil {
		return err
	}
	tier.AdmitReserved(f)
	return nil
}

func TestAdmitAndCapacity(t *testing.T) {
	tier := NewTier(100)
	if err := admit(tier, file("a", "1", 60, 0)); err != nil {
		t.Fatal(err)
	}
	if err := admit(tier, file("a", "2", 50, 1)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-capacity admit: %v", err)
	}
	if err := admit(tier, file("a", "3", 40, 2)); err != nil {
		t.Fatal(err)
	}
	if u := tier.Usage(); u.Used != 100 || u.Pending != 2 || u.Reserved != 0 {
		t.Fatalf("usage = %+v", u)
	}
	if peak := tier.Usage().Peak; peak != 100 {
		t.Fatalf("peak = %d", peak)
	}
	if err := admit(tier, file("a", "bad", -1, 0)); err == nil {
		t.Fatal("negative size admitted")
	}
}

func TestUnboundedTier(t *testing.T) {
	tier := NewTier(0)
	for i := 0; i < 100; i++ {
		if err := admit(tier, file("a", string(rune('a'+i)), 1e9, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

func names(batch []*File) string {
	var out []string
	for _, f := range batch {
		out = append(out, fmt.Sprintf("%s/%s#%d", f.Key.Account, f.Key.Name, f.Version))
	}
	return strings.Join(out, " ")
}

func TestNextBatchGroupsByAccountThenArrival(t *testing.T) {
	// The §6 order over the whole backlog: account, then arrival, then
	// name, then version — whatever order the files were admitted in.
	tier := NewTier(0)
	admit(tier, file("beta", "x", 10, 5))
	admit(tier, file("alpha", "y", 10, 9))
	admit(tier, file("alpha", "z", 10, 2))
	admit(tier, file("alpha", "b", 10, 9))
	v2 := file("alpha", "b", 10, 9)
	v2.Version = 2
	admit(tier, v2)
	admit(tier, file("alpha", "a", 10, 9))
	const want = "alpha/z#1 alpha/a#1 alpha/b#1 alpha/b#2 alpha/y#1 beta/x#1"
	for i := 0; i < 3; i++ {
		if got := names(tier.NextBatch()); got != want {
			t.Fatalf("backlog order = %s, want %s", got, want)
		}
	}
}

func TestNextBatchOversizeFileStillShips(t *testing.T) {
	// The backlog is not cut at a platter's worth: a file larger than a
	// platter ships with everything behind it (sharding across platters
	// happens at layout).
	tier := NewTier(0)
	admit(tier, file("a", "big", 500000, 0))
	admit(tier, file("a", "small", 40, 1))
	if got := names(tier.NextBatch()); got != "a/big#1 a/small#1" {
		t.Fatalf("backlog = %s", got)
	}
}

func TestNextBatchEmpty(t *testing.T) {
	tier := NewTier(0)
	if b := tier.NextBatch(); b != nil {
		t.Fatalf("empty tier returned batch of %d", len(b))
	}
	f := file("a", "1", 10, 0)
	admit(tier, f)
	if err := tier.Release([]*File{f}); err != nil {
		t.Fatal(err)
	}
	if b := tier.NextBatch(); b != nil {
		t.Fatalf("drained tier returned batch of %d", len(b))
	}
}

func TestFindAndReleaseByKeyAndVersion(t *testing.T) {
	tier := NewTier(0)
	v1, v2 := file("a", "obj", 30, 0), file("a", "obj", 50, 1)
	v2.Version = 2
	admit(tier, v1)
	admit(tier, v2)
	if f, ok := tier.Find(v1.Key, 2); !ok || f != v2 {
		t.Fatalf("Find(v2) = %v, %v", f, ok)
	}
	if _, ok := tier.Find(v1.Key, 3); ok {
		t.Fatal("found a version never admitted")
	}
	// Release goes by identity, not by pointer: the flush holds the File
	// it was handed, recovery may hold a copy.
	if err := tier.Release([]*File{{Key: v1.Key, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.Find(v1.Key, 1); ok {
		t.Fatal("released version still found")
	}
	if u := tier.Usage(); u.Used != 50 || u.Pending != 1 {
		t.Fatalf("used=%d pending=%d after releasing v1", u.Used, u.Pending)
	}
	// An unknown file is an error, and the rest of the list still goes.
	if err := tier.Release([]*File{v1, v2}); err == nil {
		t.Fatal("release of an unstaged file allowed")
	}
	if u := tier.Usage(); u.Used != 0 || u.Pending != 0 {
		t.Fatalf("used=%d pending=%d after releasing everything", u.Used, u.Pending)
	}
}

func TestUsageOldestArrival(t *testing.T) {
	tier := NewTier(0)
	if u := tier.Usage(); u.Pending != 0 || u.OldestArrival != 0 {
		t.Fatalf("empty usage = %+v", u)
	}
	files := []*File{file("a", "1", 1, 7), file("a", "2", 1, 3), file("a", "3", 1, 5), file("a", "4", 1, 3)}
	for _, f := range files {
		admit(tier, f)
	}
	for _, step := range []struct {
		release *File
		want    float64
	}{{nil, 3}, {files[1], 3}, {files[3], 5}, {files[0], 5}, {files[2], 0}} {
		if step.release != nil {
			if err := tier.Release([]*File{step.release}); err != nil {
				t.Fatal(err)
			}
		}
		if got := tier.Usage().OldestArrival; got != step.want {
			t.Fatalf("oldest arrival after releasing %v = %v, want %v", step.release, got, step.want)
		}
	}
	// A drained tier starts over: the next file is the oldest.
	admit(tier, file("a", "5", 1, 9))
	if got := tier.Usage().OldestArrival; got != 9 {
		t.Fatalf("oldest arrival after refill = %v, want 9", got)
	}
}

func TestConcurrentFindAdmitRelease(t *testing.T) {
	// The front end finds and admits while a flush lists and releases.
	tier := NewTier(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := file(fmt.Sprintf("acct%d", w), fmt.Sprint(i), 10, float64(i))
				if err := admit(tier, f); err != nil {
					t.Error(err)
					return
				}
				if got, ok := tier.Find(f.Key, 1); ok && got != f {
					t.Errorf("Find returned another file for %v", f.Key)
				}
				tier.Usage()
			}
		}(w)
	}
	released := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for drained := false; !drained; {
		select {
		case <-done:
			drained = true
		default:
		}
		batch := tier.NextBatch()
		if err := tier.Release(batch); err != nil {
			t.Fatal(err)
		}
		released += len(batch)
	}
	if u := tier.Usage(); released != 800 || u.Used != 0 || u.Pending != 0 {
		t.Fatalf("released %d of 800; usage %+v", released, u)
	}
}

func TestReleaseFreesSpace(t *testing.T) {
	tier := NewTier(0)
	f1 := file("a", "1", 30, 0)
	f2 := file("a", "2", 40, 1)
	admit(tier, f1)
	admit(tier, f2)
	if err := tier.Release([]*File{f1}); err != nil {
		t.Fatal(err)
	}
	if u := tier.Usage(); u.Used != 40 || u.Pending != 1 {
		t.Fatalf("used=%d pending=%d", u.Used, u.Pending)
	}
	if err := tier.Release([]*File{f1}); err == nil {
		t.Fatal("double release allowed")
	}
}

func TestBatchThenReleaseLifecycle(t *testing.T) {
	// The §3.1 rule: staged data is deleted only after verification.
	tier := NewTier(0)
	f := file("a", "1", 30, 0)
	admit(tier, f)
	batch := tier.NextBatch()
	if len(batch) != 1 {
		t.Fatal("no batch")
	}
	// Batch formation must NOT free space; verification hasn't run.
	if tier.Used() != 30 {
		t.Fatalf("batch formation freed staging: used=%d", tier.Used())
	}
	if err := tier.Release(batch); err != nil {
		t.Fatal(err)
	}
	if tier.Used() != 0 {
		t.Fatalf("used after release = %d", tier.Used())
	}
}
