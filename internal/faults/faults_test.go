package faults

import (
	"errors"
	"testing"
	"time"
)

var canonicalRules = []string{
	"op=media.write,mode=error,every=7,count=5",
	"op=staging.reserve,mode=error,err=capacity,prob=0.2",
	"op=media.read,platter=3,mode=latency,latency=5ms",
	"op=media.write,track=0,sector=1,mode=partial",
	"op=flush.burn,platter=2,mode=error,after=3",
}

func TestParseRuleRoundTrip(t *testing.T) {
	for _, s := range canonicalRules {
		r, err := ParseRule(s)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", s, err)
		}
		if got := r.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		// The rendered form must re-parse to the same rule.
		r2, err := ParseRule(r.String())
		if err != nil || r2 != r {
			t.Errorf("re-parse %q: %+v vs %+v (err %v)", r.String(), r2, r, err)
		}
	}
}

func TestParseRuleRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",                                    // no op
		"op=media.write",                      // no mode
		"op=media.write,mode=vaporize",        // unknown mode
		"op=media.write,mode=latency",         // latency mode without latency
		"op=media.write,mode=error,prob=1.5",  // prob out of range
		"op=media.write,mode=error,prob=NaN",  // prob not a number
		"op=media.write,mode=error,every=-1",  // negative trigger
		"op=media.write,mode=error,bogus=1",   // unknown key
		"op=media.write,mode=error,every=two", // non-numeric
		"notkeyvalue",
	} {
		if _, err := ParseRule(s); err == nil {
			t.Errorf("ParseRule(%q) accepted garbage", s)
		}
	}
}

func TestEveryAfterCountTriggers(t *testing.T) {
	inj := New(1)
	if err := inj.ArmString("op=media.write,mode=error,after=2,every=3,count=2"); err != nil {
		t.Fatal(err)
	}
	// Matches 1..2 are in the skip window; then every 3rd of the
	// remaining ordinals fires (ordinals 3,6 -> matches 5, 8), capped
	// at 2 fires.
	var fired []int
	for m := 1; m <= 20; m++ {
		if err := inj.Check(OpMediaWrite, -1, -1, -1); err != nil {
			fired = append(fired, m)
		}
	}
	want := []int{5, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	snap := inj.Snapshot()
	if len(snap) != 1 || snap[0].Fires != 2 || snap[0].Matches != 20 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if inj.Total() != 2 {
		t.Fatalf("total = %d, want 2", inj.Total())
	}
}

func TestSelectorsNarrowMatches(t *testing.T) {
	inj := New(1)
	if err := inj.ArmString("op=media.read,platter=3,track=1,mode=error"); err != nil {
		t.Fatal(err)
	}
	if err := inj.Check(OpMediaRead, 2, 1, 0); err != nil {
		t.Fatalf("wrong platter fired: %v", err)
	}
	if err := inj.Check(OpMediaRead, 3, 0, 0); err != nil {
		t.Fatalf("wrong track fired: %v", err)
	}
	if err := inj.Check(OpMediaWrite, 3, 1, 0); err != nil {
		t.Fatalf("wrong op fired: %v", err)
	}
	if err := inj.Check(OpMediaRead, 3, 1, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching op did not fire: %v", err)
	}
}

func TestSeededProbDeterminism(t *testing.T) {
	run := func(seed uint64) []int {
		inj := New(seed)
		if err := inj.ArmString("op=media.write,mode=error,prob=0.3"); err != nil {
			t.Fatal(err)
		}
		var fired []int
		for m := 0; m < 200; m++ {
			if inj.Check(OpMediaWrite, -1, -1, -1) != nil {
				fired = append(fired, m)
			}
		}
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("prob=0.3 fired %d/200 times", len(a))
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fire sequences")
	}
}

func TestErrorClassMapping(t *testing.T) {
	sentinel := errors.New("capacity exhausted")
	inj := New(1)
	inj.MapError("capacity", sentinel)
	if err := inj.ArmString("op=staging.reserve,mode=error,err=capacity"); err != nil {
		t.Fatal(err)
	}
	err := inj.Check(OpStagingReserve, -1, -1, -1)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("want mapped class error, got %v", err)
	}
	// Unmapped class still injects, just without the typed wrap.
	inj2 := New(1)
	if err := inj2.ArmString("op=staging.reserve,mode=error,err=unknown-class"); err != nil {
		t.Fatal(err)
	}
	if err := inj2.Check(OpStagingReserve, -1, -1, -1); !errors.Is(err, ErrInjected) {
		t.Fatalf("unmapped class did not inject: %v", err)
	}
}

func TestPartialCorruptionDeterministic(t *testing.T) {
	mk := func() *Injector {
		inj := New(7)
		if err := inj.ArmString("op=media.write,mode=partial"); err != nil {
			t.Fatal(err)
		}
		return inj
	}
	orig := make([]byte, 4096)
	for i := range orig {
		orig[i] = byte(i)
	}
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	if err := mk().CheckData(OpMediaWrite, 1, 0, 0, a); err != nil {
		t.Fatalf("partial mode returned error: %v", err)
	}
	if err := mk().CheckData(OpMediaWrite, 1, 0, 0, b); err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for i := range orig {
		if a[i] != orig[i] {
			diffs++
		}
		if a[i] != b[i] {
			t.Fatalf("same seed corrupted differently at byte %d", i)
		}
	}
	if diffs == 0 {
		t.Fatal("partial fault corrupted nothing")
	}
	if diffs > len(orig)/8 {
		t.Fatalf("partial fault clobbered %d/%d bytes; should be a sprinkle", diffs, len(orig))
	}
}

func TestLatencyMode(t *testing.T) {
	inj := New(1)
	if err := inj.ArmString("op=media.read,mode=latency,latency=30ms"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := inj.Check(OpMediaRead, -1, -1, -1); err != nil {
		t.Fatalf("latency mode returned error: %v", err)
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("latency rule slept only %s", d)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.Check(OpMediaWrite, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := inj.CheckData(OpMediaRead, 1, 2, 3, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if inj.Total() != 0 || inj.Snapshot() != nil {
		t.Fatal("nil injector reported state")
	}
	inj.MapError("x", errors.New("x"))
	inj.Clear()
	inj.Instrument(nil)
	if err := inj.Arm(Rule{Op: OpMediaRead, Mode: ModeError}); err == nil {
		t.Fatal("nil injector accepted a rule")
	}
}

func TestClearResetsRules(t *testing.T) {
	inj := New(1)
	if err := inj.ArmString("op=media.write,mode=error"); err != nil {
		t.Fatal(err)
	}
	if inj.Check(OpMediaWrite, -1, -1, -1) == nil {
		t.Fatal("armed rule did not fire")
	}
	inj.Clear()
	if err := inj.Check(OpMediaWrite, -1, -1, -1); err != nil {
		t.Fatalf("cleared injector still fired: %v", err)
	}
	if len(inj.Snapshot()) != 0 {
		t.Fatal("cleared injector still lists rules")
	}
}

// FuzzParseRule feeds ParseRule the bytes POST /v1/faults and -fault
// hand it: it must never panic, and a rule it accepts must render to a
// string that arms an equal rule (negative selectors all mean "any" and
// render as absent, so they compare as -1).
func FuzzParseRule(f *testing.F) {
	for _, s := range canonicalRules {
		f.Add(s)
	}
	// The crash drills' kill points (make crash-smoke, cluster-crash).
	f.Add("kill@publish.platter:after=1,count=1")
	f.Add("kill@cluster.place:after=40,count=1")
	f.Add("partial@persist.append:every=5")
	f.Add("op=media.write;platter=-7 mode=error,prob=1e-320")
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			return
		}
		r.Platter, r.Track, r.Sector = max(r.Platter, -1), max(r.Track, -1), max(r.Sector, -1)
		inj := New(1)
		if err := inj.ArmString(r.String()); err != nil {
			t.Fatalf("%q parsed to %+v, which renders as %q and does not arm: %v", s, r, r.String(), err)
		}
		if got := inj.Snapshot()[0].Rule; got != r {
			t.Fatalf("%q parsed to %+v but %q arms %+v", s, r, r.String(), got)
		}
	})
}
