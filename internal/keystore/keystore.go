// Package keystore implements per-file envelope encryption and
// crypto-shredding deletes. Glass is WORM, so Silica cannot erase
// bytes; §3 of the paper: "deletes are handled by encryption key
// deletion for the file and removing pointers to it from the metadata".
// Keys live in a (simulated) warm, mutable store; destroying a file's
// key renders its immutable ciphertext permanently unreadable.
package keystore

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrNoKey is returned when a file's key is absent — either never
// created or already shredded.
var ErrNoKey = errors.New("keystore: no key (never created or shredded)")

// ErrExists is returned when creating a key that already exists.
var ErrExists = errors.New("keystore: key already exists")

const keyBytes = 32 // AES-256

// Overhead is the ciphertext expansion: the IV prepended by Encrypt.
const Overhead = aes.BlockSize

// Store is an in-memory key service. It is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	keys map[string][]byte
}

// New returns an empty key store.
func New() *Store {
	return &Store{keys: make(map[string][]byte)}
}

// CreateKey generates and stores a fresh AES-256 key for id. Ids are
// single-use by construction: the service names a key after the
// operation sequence number that created it, which recovery restores,
// so an id never recurs and a shredded one needs no tombstone.
func (s *Store) CreateKey(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.keys[id]; ok {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	k := make([]byte, keyBytes)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		return fmt.Errorf("keystore: generating key: %w", err)
	}
	s.keys[id] = k
	return nil
}

// Encrypt seals plaintext under id's key with AES-256-CTR and a random
// IV. The ciphertext layout is IV || body.
func (s *Store) Encrypt(id string, plaintext []byte) ([]byte, error) {
	s.mu.RLock()
	key, ok := s.keys[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoKey, id)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("keystore: %w", err)
	}
	out := make([]byte, aes.BlockSize+len(plaintext))
	iv := out[:aes.BlockSize]
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("keystore: generating IV: %w", err)
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[aes.BlockSize:], plaintext)
	return out, nil
}

// Decrypt opens a ciphertext produced by Encrypt into a new buffer.
// After Shred(id) this permanently fails with ErrNoKey.
func (s *Store) Decrypt(id string, ciphertext []byte) ([]byte, error) {
	return s.DecryptInto(id, nil, ciphertext)
}

// DecryptInto is Decrypt into dst's backing array: the plaintext is
// returned as dst[:len(ciphertext)-Overhead], and a new buffer is
// allocated only when dst's capacity is short. ciphertext must not
// overlap dst.
func (s *Store) DecryptInto(id string, dst, ciphertext []byte) ([]byte, error) {
	stream, err := s.stream(id, ciphertext)
	if err != nil {
		return nil, err
	}
	body := ciphertext[aes.BlockSize:]
	out := dst[:0]
	if out == nil || cap(out) < len(body) { // never nil: an empty file reads as empty
		out = make([]byte, len(body))
	}
	out = out[:len(body)]
	stream.XORKeyStream(out, body)
	return out, nil
}

// DecryptInPlace is Decrypt for a ciphertext the caller owns: the body
// is moved down over the IV and the plaintext returned as
// ciphertext[:len(ciphertext)-Overhead], so it starts where the buffer
// does and nothing is allocated for it.
func (s *Store) DecryptInPlace(id string, ciphertext []byte) ([]byte, error) {
	stream, err := s.stream(id, ciphertext)
	if err != nil {
		return nil, err
	}
	// cipher.Stream allows exact overlap but not partial, so decrypt the
	// body where it lies, then move it down over the IV.
	body := ciphertext[aes.BlockSize:]
	stream.XORKeyStream(body, body)
	return ciphertext[:copy(ciphertext, body)], nil
}

// stream returns the AES-CTR keystream that opens ciphertext under id's
// key.
func (s *Store) stream(id string, ciphertext []byte) (cipher.Stream, error) {
	s.mu.RLock()
	key, ok := s.keys[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoKey, id)
	}
	if len(ciphertext) < aes.BlockSize {
		return nil, fmt.Errorf("keystore: ciphertext shorter than IV")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("keystore: %w", err)
	}
	return cipher.NewCTR(block, ciphertext[:aes.BlockSize]), nil
}

// Shred destroys id's key, zeroing the key material. The data it
// protected — however many immutable copies exist in glass — becomes
// unrecoverable. This is the delete primitive of the service.
func (s *Store) Shred(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.keys[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoKey, id)
	}
	for i := range key {
		key[i] = 0
	}
	delete(s.keys, id)
	return nil
}

// Material returns a copy of id's key material, for the durability
// layer: the WAL record of a Put must carry the key, or a restart would
// leave acknowledged staged data as undecryptable ciphertext.
func (s *Store) Material(id string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	key, ok := s.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoKey, id)
	}
	cp := make([]byte, len(key))
	copy(cp, key)
	return cp, nil
}

// Export copies the live key material, keyed by id (persistence
// snapshots).
func (s *Store) Export() map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]byte, len(s.keys))
	for id, key := range s.keys {
		cp := make([]byte, len(key))
		copy(cp, key)
		out[id] = cp
	}
	return out
}

// Install registers existing key material under id, overwriting any
// previous entry. Recovery-only: replay
// re-installs the exact keys that were live before a crash, including
// across a shred that a fuzzy snapshot captured but whose delete record
// replays afterwards.
func (s *Store) Install(id string, key []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(key))
	copy(cp, key)
	s.keys[id] = cp
}
