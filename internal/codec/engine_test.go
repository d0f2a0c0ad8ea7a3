package codec

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		e := NewEngine(workers, nil)
		const n = 1000
		seen := make([]int32, n)
		if err := e.ForEach(n, func(i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachDefaultSizesFromGOMAXPROCS(t *testing.T) {
	e := NewEngine(0, nil)
	if got, want := e.workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("workers = %d, want %d", got, want)
	}
	if NewEngine(1, nil).workers != 1 {
		t.Fatal("Serial engine must have one worker")
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	e := NewEngine(4, nil)
	errBoom := errors.New("boom")
	err := e.ForEach(100, func(i int) error {
		if i == 7 || i == 50 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
	// Serial mode must report the first error and stop there.
	var visited int32
	err = NewEngine(1, nil).ForEach(100, func(i int) error {
		atomic.AddInt32(&visited, 1)
		if i == 7 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) || visited != 8 {
		t.Fatalf("serial: err=%v visited=%d", err, visited)
	}
}

func TestForEachNested(t *testing.T) {
	e := NewEngine(8, nil)
	const outer, inner = 16, 64
	var total atomic.Int64
	err := e.ForEach(outer, func(i int) error {
		return e.ForEach(inner, func(j int) error {
			total.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != outer*inner {
		t.Fatalf("ran %d iterations, want %d", total.Load(), outer*inner)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := NewEngine(4, nil).ForEach(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
