package keystore

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	s := New()
	if err := s.CreateKey("f1"); err != nil {
		t.Fatal(err)
	}
	err := quick.Check(func(plain []byte) bool {
		ct, err := s.Encrypt("f1", plain)
		if err != nil {
			return false
		}
		pt, err := s.Decrypt("f1", ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, plain)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	s := New()
	if err := s.CreateKey("f1"); err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte("archive"), 100)
	ct, err := s.Encrypt("f1", plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, plain[:16]) {
		t.Fatal("ciphertext leaks plaintext")
	}
	// Two encryptions of the same plaintext must differ (random IV).
	ct2, _ := s.Encrypt("f1", plain)
	if bytes.Equal(ct, ct2) {
		t.Fatal("deterministic ciphertext (IV reuse?)")
	}
}

func TestWrongKeyGarbles(t *testing.T) {
	s := New()
	s.CreateKey("a")
	s.CreateKey("b")
	plain := []byte("the contents of file a")
	ct, _ := s.Encrypt("a", plain)
	got, err := s.Decrypt("b", ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, plain) {
		t.Fatal("different key decrypted successfully")
	}
}

// TestShredIsPermanent is the §3 delete semantics: once the key is
// gone, the immutable glass copy is unreadable forever.
func TestShredIsPermanent(t *testing.T) {
	s := New()
	s.CreateKey("doomed")
	ct, _ := s.Encrypt("doomed", []byte("secret archive"))
	if err := s.Shred("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decrypt("doomed", ct); !errors.Is(err, ErrNoKey) {
		t.Fatalf("decrypt after shred: %v, want ErrNoKey", err)
	}
	if _, err := s.Encrypt("doomed", []byte("x")); !errors.Is(err, ErrNoKey) {
		t.Fatalf("encrypt after shred: %v, want ErrNoKey", err)
	}
	if err := s.Shred("doomed"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("double shred: %v, want ErrNoKey", err)
	}
}

func TestCreateKeyDuplicate(t *testing.T) {
	s := New()
	s.CreateKey("x")
	if err := s.CreateKey("x"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
}

func TestMissingKeyErrors(t *testing.T) {
	s := New()
	if _, err := s.Encrypt("nope", []byte("x")); !errors.Is(err, ErrNoKey) {
		t.Fatal("encrypt without key should fail")
	}
	if _, err := s.Decrypt("nope", make([]byte, 32)); !errors.Is(err, ErrNoKey) {
		t.Fatal("decrypt without key should fail")
	}
	if _, err := s.Material("nope"); !errors.Is(err, ErrNoKey) {
		t.Fatal("key material for a missing id")
	}
}

func TestShortCiphertextRejected(t *testing.T) {
	s := New()
	s.CreateKey("x")
	if _, err := s.Decrypt("x", []byte{1, 2, 3}); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

func TestLiveKeys(t *testing.T) {
	s := New()
	s.CreateKey("a")
	s.CreateKey("b")
	if n := len(s.Export()); n != 2 {
		t.Fatalf("live keys = %d", n)
	}
	s.Shred("a")
	if live := s.Export(); len(live) != 1 || live["b"] == nil {
		t.Fatalf("live keys after shred = %v", live)
	}
}

// TestDecryptInPlace: DecryptInPlace returns what Decrypt returns, in
// the caller's buffer from its first byte, while Decrypt leaves its
// input untouched; after Shred both fail with ErrNoKey.
func TestDecryptInPlace(t *testing.T) {
	s := New()
	if err := s.CreateKey("f"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 15, 16, 17, 4096, 5000} {
		plain := bytes.Repeat([]byte{byte(n), 7}, n)[:n]
		ct, err := s.Encrypt("f", plain)
		if err != nil {
			t.Fatal(err)
		}
		kept := bytes.Clone(ct)
		want, err := s.Decrypt("f", ct)
		if err != nil || !bytes.Equal(want, plain) || !bytes.Equal(ct, kept) {
			t.Fatalf("%d bytes: Decrypt err=%v, plaintext equal=%v, input kept=%v",
				n, err, bytes.Equal(want, plain), bytes.Equal(ct, kept))
		}
		got, err := s.DecryptInPlace("f", ct)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: DecryptInPlace err=%v, equal to Decrypt=%v", n, err, bytes.Equal(got, want))
		}
		if n > 0 && &got[0] != &ct[0] {
			t.Fatalf("%d bytes: DecryptInPlace did not decrypt in place", n)
		}
	}
	ct, _ := s.Encrypt("f", []byte("secret archive"))
	if err := s.Shred("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DecryptInPlace("f", ct); !errors.Is(err, ErrNoKey) {
		t.Fatalf("DecryptInPlace after shred: %v, want ErrNoKey", err)
	}
	if _, err := s.Decrypt("f", ct); !errors.Is(err, ErrNoKey) {
		t.Fatalf("Decrypt after shred: %v, want ErrNoKey", err)
	}
	s.CreateKey("short")
	if _, err := s.DecryptInPlace("short", []byte{1, 2, 3}); err == nil {
		t.Fatal("short ciphertext accepted in place")
	}
}

// TestDecryptInto: DecryptInto returns what Decrypt returns, in dst's
// backing array from its first byte when dst's capacity covers the
// plaintext and in a new buffer otherwise, and leaves the ciphertext
// untouched.
func TestDecryptInto(t *testing.T) {
	s := New()
	if err := s.CreateKey("f"); err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte("glass"), 1000)
	ct, err := s.Encrypt("f", plain)
	if err != nil {
		t.Fatal(err)
	}
	kept := bytes.Clone(ct)
	for _, c := range []struct {
		capacity int
		reused   bool
	}{{0, false}, {len(plain) - 1, false}, {len(plain), true}, {2 * len(plain), true}} {
		dst := make([]byte, 0, c.capacity)
		got, err := s.DecryptInto("f", dst, ct)
		if err != nil || !bytes.Equal(got, plain) || !bytes.Equal(ct, kept) {
			t.Fatalf("cap %d: err=%v, plaintext equal=%v, ciphertext kept=%v",
				c.capacity, err, bytes.Equal(got, plain), bytes.Equal(ct, kept))
		}
		if reused := cap(dst) > 0 && &got[0] == &dst[:1][0]; reused != c.reused {
			t.Fatalf("cap %d: dst reused = %v, want %v", c.capacity, reused, c.reused)
		}
	}
	if _, err := s.DecryptInto("f", nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}
