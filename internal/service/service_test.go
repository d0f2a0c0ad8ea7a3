package service

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"silica/internal/media"
	"silica/internal/repair"
	"silica/internal/sim"
	"silica/internal/voxel"
)

func newService(t testing.TB) *Service {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randBytes(seed uint64, n int) []byte {
	r := sim.NewRNG(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Uint64())
	}
	return out
}

func TestPutGetStaged(t *testing.T) {
	s := newService(t)
	data := randBytes(1, 5000)
	v, err := s.Put("acct", "file1", data)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d", v)
	}
	got, err := s.Get("acct", "file1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("staged read mismatch")
	}
	if s.Stats().StagedReads != 1 {
		t.Fatal("staged read not counted")
	}
}

// TestStagedGetsOwnTheirBytes: a staged file's ciphertext is shared
// with the staging tier, so Get must decrypt a copy of it, never in
// place. Two Gets return the same plaintext, and scribbling over one
// reply changes neither the next nor the stored file.
func TestStagedGetsOwnTheirBytes(t *testing.T) {
	s := newService(t)
	data := randBytes(2, 5000)
	if _, err := s.Put("acct", "f", data); err != nil {
		t.Fatal(err)
	}
	first, err := s.Get("acct", "f")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Get("acct", "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, data) || !bytes.Equal(second, data) {
		t.Fatal("staged reads differ from the written data")
	}
	clear(first)
	third, err := s.Get("acct", "f")
	if err != nil || !bytes.Equal(third, data) {
		t.Fatalf("a staged read after overwriting an earlier reply: err=%v, equal=%v", err, bytes.Equal(third, data))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("acct", "f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("durable read after the staged ones: err=%v", err)
	}
}

func TestPutFlushGetDurable(t *testing.T) {
	s := newService(t)
	data := randBytes(2, 12000)
	if _, err := s.Put("acct", "file1", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.StagedBytes() != 0 {
		t.Fatalf("staging not drained: %d bytes", s.StagedBytes())
	}
	got, err := s.Get("acct", "file1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("durable read mismatch")
	}
	st := s.Stats()
	if st.PlattersWritten < 1 || st.SectorsWritten == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DurableReads != 1 {
		t.Fatal("durable read not counted")
	}
	if st.BytesStored == 0 || st.RedundancyBytes == 0 {
		t.Fatalf("byte accounting missing: %+v", st)
	}
}

func TestManyFilesRoundTrip(t *testing.T) {
	s := newService(t)
	files := map[string][]byte{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("f%02d", i)
		data := randBytes(uint64(i+10), 500+i*700)
		files[name] = data
		if _, err := s.Put("acct", name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		got, err := s.Get("acct", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: payload mismatch", name)
		}
	}
}

func TestVersionedOverwrite(t *testing.T) {
	s := newService(t)
	v1 := randBytes(20, 3000)
	v2 := randBytes(21, 4000)
	s.Put("acct", "doc", v1)
	s.Flush()
	if ver, err := s.Put("acct", "doc", v2); err != nil || ver != 2 {
		t.Fatalf("second put: %d, %v", ver, err)
	}
	s.Flush()
	got, err := s.Get("acct", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("latest version should win")
	}
}

func TestDeleteShreds(t *testing.T) {
	s := newService(t)
	s.Put("acct", "secret", randBytes(30, 2000))
	s.Flush()
	if err := s.Delete("acct", "secret"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("acct", "secret"); err == nil {
		t.Fatal("deleted file readable")
	}
	if err := s.Delete("acct", "secret"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestLargeFileShardsAcrossPlatters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.maxShardSectors = 16
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 50 sectors -> 4 shards on 4 platters.
	data := randBytes(40, 50*cfg.Geom.SectorPayloadBytes-137)
	s.Put("acct", "big", data)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := s.Metadata().Get(struct{ Account, Name string }{"acct", "big"})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Extents) < 3 {
		t.Fatalf("extents = %d, want sharding", len(v.Extents))
	}
	platters := map[media.PlatterID]bool{}
	for _, e := range v.Extents {
		platters[e.Platter] = true
	}
	if len(platters) != len(v.Extents) {
		t.Fatal("shards share a platter")
	}
	got, err := s.Get("acct", "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sharded read mismatch")
	}
}

// TestCrossPlatterRecovery is the flagship §5 behaviour: after a
// platter-set completes, data on a failed platter is rebuilt from the
// other members.
func TestCrossPlatterRecovery(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill enough platters to complete a set: SetInfo platters of
	// data. Each file fills one platter's worth of payload.
	platterBytes := int(cfg.Geom.PlatterUserBytes())
	files := map[string][]byte{}
	for i := 0; i < cfg.SetInfo; i++ {
		name := fmt.Sprintf("bulk%d", i)
		data := randBytes(uint64(50+i), platterBytes*3/4)
		files[name] = data
		if _, err := s.Put("acct", name, data); err != nil {
			t.Fatal(err)
		}
		// Flush per file so each lands on its own platter.
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SetsCompleted != 1 {
		t.Fatalf("sets completed = %d, want 1", st.SetsCompleted)
	}
	if st.RedundancyPlatters != cfg.SetRed {
		t.Fatalf("redundancy platters = %d, want %d", st.RedundancyPlatters, cfg.SetRed)
	}
	// Fail the platter holding bulk0 and read it back.
	v, err := s.Metadata().Get(struct{ Account, Name string }{"acct", "bulk0"})
	if err != nil {
		t.Fatal(err)
	}
	failed := v.Extents[0].Platter
	if err := s.FailPlatter(failed); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("acct", "bulk0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["bulk0"]) {
		t.Fatal("recovered data mismatch")
	}
	if s.Stats().PlatterRecovers == 0 {
		t.Fatal("no cross-platter recoveries recorded")
	}
	// Restore and confirm the direct path again.
	if err := s.Health().Transition(failed, repair.Healthy, "failure cleared"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("acct", "bulk0"); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryWithoutCompletedSetFails(t *testing.T) {
	s := newService(t)
	s.Put("acct", "lonely", randBytes(60, 3000))
	s.Flush()
	v, _ := s.Metadata().Get(struct{ Account, Name string }{"acct", "lonely"})
	s.FailPlatter(v.Extents[0].Platter)
	if _, err := s.Get("acct", "lonely"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("expected ErrUnavailable, got %v", err)
	}
}

func TestNoisyChannelStillRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier codec run")
	}
	cfg := DefaultConfig()
	// Noisier than default: sector failures become common enough
	// (~5%) that within-track repair must kick in across a platter's
	// worth of sectors, while most tracks stay verifiable.
	cfg.Channel.Sigma = 0.185
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(70, 60000)
	s.Put("acct", "noisy", data)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("acct", "noisy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("noisy read mismatch")
	}
}

func TestHopelessChannelFaultsPlatter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channel = voxel.Channel{Sigma: 0.6, Width: 64} // unusable optics
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("acct", "doomed", randBytes(80, 5000))
	if err := s.Flush(); err == nil {
		t.Fatal("flush should fail to make progress on a hopeless channel")
	}
	st := s.Stats()
	if st.PlattersFaulted == 0 {
		t.Fatal("no faulted platters recorded")
	}
	// Data must still be readable from staging.
	if _, err := s.Get("acct", "doomed"); err != nil {
		t.Fatalf("staged fallback failed: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	s := newService(t)
	if _, err := s.Get("acct", "ghost"); err == nil {
		t.Fatal("missing file readable")
	}
}

func TestStatsFilesCount(t *testing.T) {
	s := newService(t)
	s.Put("a", "1", randBytes(90, 100))
	s.Put("a", "2", randBytes(91, 100))
	if got := s.Stats().Files; got != 2 {
		t.Fatalf("files = %d", got)
	}
}

func TestVerifyMarginRecorded(t *testing.T) {
	s := newService(t)
	s.Put("acct", "f", randBytes(95, 20000))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MinVerifyMargin <= 0 || st.MinVerifyMargin > 1 {
		t.Fatalf("verify margin = %v", st.MinVerifyMargin)
	}
}

// TestStatsAfterRecovery: after a restart the event counts start at
// zero and the state fields describe what recovery restored. Recovery
// used to seed PlattersWritten with every recovered platter, set
// redundancy included, while RedundancyPlatters restarted at zero.
func TestStatsAfterRecovery(t *testing.T) {
	cfg := smallSetConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillSetSeeded(t, s, cfg)
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.ClosePersist()
	if st := s.Stats(); st.SetsCompleted != 1 || st.PlattersWritten != 0 || st.RedundancyPlatters != 0 {
		t.Fatalf("after recovery: %d sets, %d platters written, %d redundancy platters; want 1, 0, 0",
			st.SetsCompleted, st.PlattersWritten, st.RedundancyPlatters)
	}
	stageRaw(s, "after", randBytes(60, 4000))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PlattersWritten != 1 {
		t.Fatalf("platters written after one more flush = %d, want 1", st.PlattersWritten)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SetInfo = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad set shape accepted")
	}
	cfg = DefaultConfig()
	cfg.LDPCBlock = 10
	cfg.LDPCData = 20
	if _, err := New(cfg); err == nil {
		t.Fatal("bad LDPC shape accepted")
	}
	cfg = DefaultConfig()
	cfg.Geom.SectorPayloadBytes = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

// TestStagedWritesWithJoiningNamesSurviveRestart: ("a/b", "c") and
// ("a", "b/c") join to one "account/name" string. Recovery used to key
// staged files by that string, so a restart merged the two and the
// second Get failed with "staged but not in tier". Both a clean close
// and a kill (no ClosePersist) must bring both back byte-exact.
func TestStagedWritesWithJoiningNamesSurviveRestart(t *testing.T) {
	for _, clean := range []bool{true, false} {
		cfg := smallSetConfig()
		cfg.PersistDir = t.TempDir()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		objects := map[[2]string][]byte{
			{"a/b", "c"}: randBytes(70, 300),
			{"a", "b/c"}: randBytes(71, 500),
		}
		for k, data := range objects {
			if _, err := s.Put(k[0], k[1], data); err != nil {
				t.Fatal(err)
			}
		}
		if clean {
			if err := s.ClosePersist(); err != nil {
				t.Fatal(err)
			}
		} else {
			s.PersistLog().Crash()
		}
		s, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range objects {
			got, err := s.Get(k[0], k[1])
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("clean close %v: Get(%q, %q) after restart: err=%v, byte-exact=%v",
					clean, k[0], k[1], err, bytes.Equal(got, want))
			}
		}
		if err := s.ClosePersist(); err != nil {
			t.Fatal(err)
		}
	}
}
