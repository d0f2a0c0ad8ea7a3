package service

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/repair"
	"silica/internal/voxel"
)

// gatherFixture is a closed 4+2 platter-set on a noiseless channel with
// a fault injector: every direct decode succeeds unless a media.read
// rule says otherwise, so the number of sector reads a recovery makes
// is exact.
func gatherFixture(t *testing.T) (*Service, Config, map[string][]byte) {
	t.Helper()
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.Faults = faults.New(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg, fillSet(t, s, cfg)
}

// reads counts sector reads attempted: decodes run plus reads an
// injected media.read fault cut short before the decode.
func reads(s *Service) int64 {
	return s.om.codecDecSectors.Value() + s.faults.Total()
}

func arm(t *testing.T, s *Service, format string, args ...any) {
	t.Helper()
	if err := s.faults.ArmString(fmt.Sprintf(format, args...)); err != nil {
		t.Fatal(err)
	}
}

// TestSetRecoveryGathersK pins the gather rule on a degraded read, for
// each failed information position of a closed set: SetInfo reads per
// recovered sector when they all decode, one more per faulted member,
// and a within-track repair only for the units still missing after
// every direct read has been tried.
func TestSetRecoveryGathersK(t *testing.T) {
	s, cfg, files := gatherFixture(t)
	k, n := cfg.SetInfo, cfg.SetInfo+cfg.SetRed
	iPerTrack := cfg.Geom.InfoSectorsPerTrack
	const faultPos = 3 // the sector position the media.read rules hit
	s.mu.RLock()
	members := append([]media.PlatterID(nil), s.sets[0]...)
	s.mu.RUnlock()

	for p := 0; p < k; p++ {
		name := fmt.Sprintf("bulk%d", p)
		failed := platterOf(t, s, "acct", name)
		if failed != members[p] {
			t.Fatalf("%s sits on platter %d, want set position %d (platter %d)", name, failed, p, members[p])
		}
		if err := s.FailPlatter(failed); err != nil {
			t.Fatal(err)
		}
		for faulted := 0; faulted <= 2; faulted++ {
			// The faulted members are information members: among the
			// first k the gather turns to.
			for f := 1; f <= faulted; f++ {
				arm(t, s, "op=media.read,platter=%d,sector=%d,mode=error", members[(p+f)%k], faultPos)
			}
			before, st := reads(s), s.Stats()
			got, err := s.Get("acct", name)
			if err != nil {
				t.Fatalf("position %d, %d faulted: %v", p, faulted, err)
			}
			if !bytes.Equal(got, files[name]) {
				t.Fatalf("position %d, %d faulted: recovered bytes differ from the written data", p, faulted)
			}
			after := s.Stats()
			sectors := after.PlatterRecovers - st.PlatterRecovers
			hit := 0 // recovered sectors at the faulted position
			for sec := 0; sec < sectors; sec++ {
				if sec%iPerTrack == faultPos {
					hit++
				}
			}
			if sectors < 2*iPerTrack || hit == 0 {
				t.Fatalf("fixture too small: %d sectors recovered, %d at the faulted position", sectors, hit)
			}
			perHit := k // (i) the first k members all decode
			switch faulted {
			case 1: // (ii) the next member in order stands in
				perHit = k + 1
			case 2: // (iii) all n-1 tried, then one within-track repair
				perHit = n - 1 + iPerTrack
			}
			if want := int64((sectors-hit)*k + hit*perHit); reads(s)-before != want {
				t.Fatalf("position %d, %d faulted: %d sector reads for %d recovered sectors (%d at the faulted position), want %d",
					p, faulted, reads(s)-before, sectors, hit, want)
			}
			if after.SectorRepairs != st.SectorRepairs || after.TrackRebuilds != st.TrackRebuilds {
				t.Fatalf("position %d, %d faulted: set recovery was billed to another tier: %+v", p, faulted, after)
			}
			s.faults.Clear()
		}
		// Two members wholly unreadable leave n-3 < k units whatever is
		// tried: the one case that may fail.
		for f := 1; f <= 2; f++ {
			arm(t, s, "op=media.read,platter=%d,mode=error", members[(p+f)%k])
		}
		if _, err := s.Get("acct", name); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("position %d with two unreadable members: err = %v, want ErrUnavailable", p, err)
		}
		s.faults.Clear()
		if err := s.Health().Transition(failed, repair.Healthy, "failure cleared"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWithinTrackRepairGathers: a within-track repair gathers from the
// track's other sectors, stops at InfoSectorsPerTrack good ones, and
// reads one more per failure. The position that sent it there is read
// again only as the last resort, once the rest of the track has come up
// short.
func TestWithinTrackRepairGathers(t *testing.T) {
	s, cfg, _ := gatherFixture(t)
	geom := cfg.Geom
	iPerTrack := geom.InfoSectorsPerTrack
	id := platterOf(t, s, "acct", "bulk0")
	pi, _ := s.platterByID(id)
	phys := geom.InfoTrackPhysical(1)
	direct := make([]byte, geom.SectorPayloadBytes)
	for want := 0; want < iPerTrack; want++ {
		cs := s.acquireScratch()
		ok := s.decodeSectorWith(cs, pi, phys, want, s.readRNG(), direct)
		s.releaseScratch(cs)
		if !ok {
			t.Fatalf("sector %d does not decode on a clean channel", want)
		}
		for failures := 0; failures <= geom.RedundancySectorsPerTrack; failures++ {
			// A rule that never fires counts reads of the wanted position.
			arm(t, s, "op=media.read,platter=%d,track=%d,sector=%d,mode=error,after=1000000", id, phys, want)
			for f := 1; f <= failures; f++ {
				arm(t, s, "op=media.read,platter=%d,track=%d,sector=%d,mode=error", id, phys, (want+f)%iPerTrack)
			}
			before := reads(s)
			got := make([]byte, geom.SectorPayloadBytes)
			ok := s.repairWithinTrack(pi, phys, want, s.readRNG(), got)
			if !ok || !bytes.Equal(got, direct) {
				t.Fatalf("want %d, %d failures: repaired = %v, bytes equal = %v", want, failures, ok, bytes.Equal(got, direct))
			}
			// One failure beside the wanted sector is within R_t; with two
			// the other nine hold only seven, and the sector is re-read.
			reread, wantReads := int64(0), int64(iPerTrack+failures)
			if failures == geom.RedundancySectorsPerTrack {
				reread, wantReads = 1, int64(geom.SectorsPerTrack())
			}
			if n := s.faults.Snapshot()[0].Matches; n != reread {
				t.Fatalf("want %d, %d failures: the failed position was read %d more times, want %d", want, failures, n, reread)
			}
			if n := reads(s) - before; n != wantReads {
				t.Fatalf("want %d, %d failures: %d sector reads, want %d", want, failures, n, wantReads)
			}
			s.faults.Clear()
		}
	}
	// With the wanted sector itself unreadable the track has nothing left.
	arm(t, s, "op=media.read,platter=%d,track=%d,sector=0,mode=error", id, phys)
	arm(t, s, "op=media.read,platter=%d,track=%d,sector=1,mode=error", id, phys)
	arm(t, s, "op=media.read,platter=%d,track=%d,sector=2,mode=error", id, phys)
	if s.repairWithinTrack(pi, phys, 0, s.readRNG(), direct) {
		t.Fatal("repaired a sector with three of its track unreadable, itself included")
	}
	s.faults.Clear()
}

// TestRebuildGathersK: a platter rebuild reads SetInfo members per
// sector — one more where a member's sector is unreadable — for an
// information platter and for a redundancy platter, and the replacement
// serves the written bytes.
func TestRebuildGathersK(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setPos int
	}{{"info", 1}, {"redundancy", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			s, cfg, files := gatherFixture(t)
			geom := cfg.Geom
			iPerTrack := geom.InfoSectorsPerTrack
			const faultPos = 5
			s.mu.RLock()
			members := append([]media.PlatterID(nil), s.sets[0]...)
			used := s.platters[members[tc.setPos]].usedInfoSectors
			s.mu.RUnlock()
			old := members[tc.setPos]
			if err := s.FailPlatter(old); err != nil {
				t.Fatal(err)
			}
			arm(t, s, "op=media.read,platter=%d,sector=%d,mode=error", members[0], faultPos)
			before := reads(s)
			newID, err := s.RebuildPlatter(old)
			if err != nil {
				t.Fatal(err)
			}
			s.faults.Clear()
			hit := 0
			for sec := 0; sec < used; sec++ {
				if sec%iPerTrack == faultPos {
					hit++
				}
			}
			usedTracks := (used + iPerTrack - 1) / iPerTrack
			verify := usedTracks * geom.SectorsPerTrack() // read-back of the replacement
			if want := int64(used*cfg.SetInfo + hit + verify); reads(s)-before != want {
				t.Fatalf("%d sector reads to rebuild %d sectors (%d with a faulted member), want %d",
					reads(s)-before, used, hit, want)
			}
			// The replacement must carry the right bytes: read every file
			// with the rebuilt platter's neighbour failed, so reads either
			// hit the replacement directly or recover through it.
			if err := s.FailPlatter(members[0]); err != nil {
				t.Fatal(err)
			}
			for name, want := range files {
				got, err := s.Get("acct", name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s after rebuilding platter %d as %d: err=%v", name, old, newID, err)
				}
			}
		})
	}
}

// TestRebuildUnderDegradedGets: rebuilds gather into pooled scratch while
// degraded Gets do the same on other goroutines, so a unit that outlived
// its scratch, or a rebuilt payload that aliased it, shows as a wrong
// byte (and under -race as a race). An information member and a
// redundancy member are failed; the redundancy member is rebuilt first
// (ReconstructAll, then re-encode), then the information member, each
// under four readers of every file, and every file reads back exact
// throughout and after.
func TestRebuildUnderDegradedGets(t *testing.T) {
	s, cfg, files := gatherFixture(t)
	s.mu.RLock()
	members := append([]media.PlatterID(nil), s.sets[0]...)
	s.mu.RUnlock()
	info, red := members[0], members[cfg.SetInfo]
	for _, id := range []media.PlatterID{info, red} {
		if err := s.FailPlatter(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, old := range []media.PlatterID{red, info} {
		stop := make(chan struct{})
		errs := make(chan error, 4)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for name, want := range files {
						select {
						case <-stop:
							return
						default:
						}
						if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, want) {
							errs <- fmt.Errorf("%s while rebuilding platter %d: err=%v, equal=%v", name, old, err, bytes.Equal(got, want))
							return
						}
					}
				}
			}()
		}
		_, err := s.RebuildPlatter(old)
		close(stop)
		wg.Wait()
		close(errs)
		if err != nil {
			t.Fatal(err)
		}
		for err := range errs {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PlattersRebuilt != 2 || st.PlatterRecovers == 0 {
		t.Fatalf("want two rebuilds and some set recoveries: %+v", st)
	}
	for name, want := range files {
		if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after both rebuilds: err=%v", name, err)
		}
	}
}
