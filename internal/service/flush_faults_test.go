package service

import (
	"bytes"
	"errors"
	"testing"

	"silica/internal/faults"
)

func faultedService(t *testing.T, rule string) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = faults.New(1)
	if err := cfg.Faults.ArmString(rule); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScrappedBurnsAreNotNoiseStrikes: rounds lost to injected
// write-drive faults are not evidence about the channel. Three scrapped
// one-platter rounds in a row used to spend all three "channel too
// noisy" strikes and fail a flush on a healthy channel.
func TestScrappedBurnsAreNotNoiseStrikes(t *testing.T) {
	s := faultedService(t, "op=media.write,mode=error,count=3")
	data := randBytes(90, 5000)
	if _, err := s.Put("acct", "file", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush gave up on a healthy channel: %v", err)
	}
	if st := s.Stats(); st.PlattersFaulted != 3 || st.PlattersWritten != 1 {
		t.Fatalf("faulted %d platters and wrote %d, want 3 scrapped and 1 written", st.PlattersFaulted, st.PlattersWritten)
	}
	if got, err := s.Get("acct", "file"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("durable read after scrapped rounds: err=%v", err)
	}
}

// TestFlushBoundedUnderPermanentWriteFault: a write drive that faults
// every burn must end the flush with an error, not spin it, and leave
// the data staged.
func TestFlushBoundedUnderPermanentWriteFault(t *testing.T) {
	s := faultedService(t, "op=media.write,mode=error")
	data := randBytes(91, 5000)
	if _, err := s.Put("acct", "file", data); err != nil {
		t.Fatal(err)
	}
	err := s.Flush()
	if err == nil || errors.Is(err, faults.ErrInjected) {
		t.Fatalf("flush under a permanent write fault returned %v, want its own no-progress error", err)
	}
	if st := s.Stats(); st.PlattersFaulted != maxScrapRounds || st.PlattersWritten != 0 {
		t.Fatalf("faulted %d platters and wrote %d, want %d scrapped rounds and nothing written",
			st.PlattersFaulted, st.PlattersWritten, maxScrapRounds)
	}
	if got, err := s.Get("acct", "file"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("staged read after the failed flush: err=%v", err)
	}
}
