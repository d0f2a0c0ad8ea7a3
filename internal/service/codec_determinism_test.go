package service

import (
	"bytes"
	"fmt"
	"testing"

	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/staging"
)

// flushFixture stages identical plaintext files into a fresh service
// configured with the given codec worker count and flushes them. It
// bypasses Put because Put seals data under crypto/rand keys — the
// staged ciphertext would differ between services regardless of the
// codec engine. maxShardSectors is capped so the batch spreads across
// enough platters to close a platter-set, exercising plan-level
// parallelism, set-redundancy encode, and verification.
func flushFixture(t testing.TB, workers int) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CodecWorkers = workers
	cfg.maxShardSectors = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		stageRaw(s, fmt.Sprintf("det-%d", i), randBytes(uint64(1000+i), 11000))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

// stageRaw stages data under acct/name as if it were Put's ciphertext,
// with no key: the flush burns exactly these bytes.
func stageRaw(s *Service, name string, data []byte) {
	key := metadata.FileKey{Account: "acct", Name: name}
	v := s.meta.Put(key, int64(len(data)), "", 0)
	if err := s.tier.Reserve(int64(len(data))); err != nil {
		panic(err)
	}
	s.tier.AdmitReserved(&staging.File{Key: key, Version: v.Version, Size: int64(len(data)), Data: data})
}

// requireIdenticalMedia asserts that two services hold byte-identical
// platter media, sector by sector.
func requireIdenticalMedia(t *testing.T, a, b *Service) {
	t.Helper()
	a.mu.RLock()
	b.mu.RLock()
	defer a.mu.RUnlock()
	defer b.mu.RUnlock()
	if len(a.platters) != len(b.platters) {
		t.Fatalf("platter counts diverge: %d vs %d", len(a.platters), len(b.platters))
	}
	geom := a.cfg.Geom
	for id, api := range a.platters {
		bpi, ok := b.platters[id]
		if !ok {
			t.Fatalf("platter %d missing from second service", id)
		}
		for track := 0; track < geom.TracksPerPlatter; track++ {
			for sec := 0; sec < geom.SectorsPerTrack(); sec++ {
				sid := media.SectorID{Track: track, Sector: sec}
				x, xok := api.platter.ReadSectorInto(sid, nil)
				y, yok := bpi.platter.ReadSectorInto(sid, nil)
				if xok != yok {
					t.Fatalf("platter %d sector %+v: written in one service only", id, sid)
				}
				if !bytes.Equal(x, y) {
					t.Fatalf("platter %d sector %+v: media bytes diverge", id, sid)
				}
			}
		}
	}
}

// TestFlushDeterministicAcrossWorkers is the codec engine's determinism
// contract: the same staged batch flushed with workers=1 and workers=8
// must burn byte-identical platter media and report identical verify
// outcomes. Every parallel sector job forks its RNG from pure seed
// material, so scheduling cannot leak into the output.
func TestFlushDeterministicAcrossWorkers(t *testing.T) {
	serial := flushFixture(t, 1)
	parallel := flushFixture(t, 8)

	ss, ps := serial.Stats(), parallel.Stats()
	if ss.PlattersWritten < 4 {
		t.Fatalf("fixture too small: only %d platters written (want >= 4 to close a set)", ss.PlattersWritten)
	}
	if ss.SetsCompleted < 1 {
		t.Fatal("fixture did not complete a platter-set")
	}
	requireIdenticalMedia(t, serial, parallel)
	if ss != ps {
		t.Fatalf("verify outcomes diverge across worker counts:\nserial:   %+v\nparallel: %+v", ss, ps)
	}
}

// TestBurnDeterministicAcrossWorkers drives burnPlatter directly: the
// same payloads burned by a serial and a parallel engine (repeatedly,
// so pooled scratch is reused warm) must store identical bytes in every
// sector.
func TestBurnDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) *Service {
		cfg := DefaultConfig()
		cfg.CodecWorkers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := mk(1), mk(8)
	geom := serial.cfg.Geom
	fullGroups := geom.TracksPerPlatter / (geom.LargeGroupInfoTracks + geom.LargeGroupRedTracks)
	sectors := fullGroups * geom.LargeGroupInfoTracks * geom.InfoSectorsPerTrack
	payloads := make([][]byte, sectors)
	for i := range payloads {
		payloads[i] = randBytes(uint64(i), geom.SectorPayloadBytes)
	}
	for round := 0; round < 2; round++ {
		sp := &platterInfo{platter: media.NewPlatter(serial.allocPlatterID(), geom), set: -1}
		pp := &platterInfo{platter: media.NewPlatter(parallel.allocPlatterID(), geom), set: -1}
		if err := serial.burnPlatter(sp, payloads); err != nil {
			t.Fatal(err)
		}
		if err := parallel.burnPlatter(pp, payloads); err != nil {
			t.Fatal(err)
		}
		for tr := 0; tr < geom.TracksPerPlatter; tr++ {
			for sec := 0; sec < geom.SectorsPerTrack(); sec++ {
				sid := media.SectorID{Track: tr, Sector: sec}
				x, xok := sp.platter.ReadSectorInto(sid, nil)
				y, yok := pp.platter.ReadSectorInto(sid, nil)
				if xok != yok || !bytes.Equal(x, y) {
					t.Fatalf("round %d sector %+v diverges (ok %v/%v)", round, sid, xok, yok)
				}
			}
		}
	}
}

// TestScrubDeterministicAcrossWorkers: the same platter scrubbed by a
// serial and a parallel engine must produce the same report (the noise
// streams are keyed by sector address, not by scheduling).
func TestScrubDeterministicAcrossWorkers(t *testing.T) {
	serial := flushFixture(t, 1)
	parallel := flushFixture(t, 8)
	for _, sum := range serial.ListPlatters() {
		a, err := serial.ScrubPlatter(sum.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.ScrubPlatter(sum.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("platter %d: scrub reports diverge:\nserial:   %+v\nparallel: %+v", sum.ID, a, b)
		}
	}
}

// TestRebuildDeterministicAcrossWorkers: an information platter and a
// redundancy platter rebuilt by a serial and a parallel engine must burn
// byte-identical replacements — which members each sector's recovery
// reads is fixed by set position, and every (member, sector) read forks
// its noise stream from its grid position, so scheduling cannot reach
// the output.
func TestRebuildDeterministicAcrossWorkers(t *testing.T) {
	serial := flushFixture(t, 1)
	parallel := flushFixture(t, 8)
	for _, s := range []*Service{serial, parallel} {
		rebuilt := 0
		for _, p := range s.ListPlatters() {
			if p.Set != 0 || (p.SetPos != 0 && p.SetPos != s.cfg.SetInfo) {
				continue
			}
			if err := s.FailPlatter(p.ID); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RebuildPlatter(p.ID); err != nil {
				t.Fatal(err)
			}
			rebuilt++
		}
		if rebuilt != 2 {
			t.Fatalf("rebuilt %d platters, want one information and one redundancy member", rebuilt)
		}
	}
	requireIdenticalMedia(t, serial, parallel)
	if ss, ps := serial.Stats(), parallel.Stats(); ss != ps {
		t.Fatalf("rebuild outcomes diverge across worker counts:\nserial:   %+v\nparallel: %+v", ss, ps)
	}
}
