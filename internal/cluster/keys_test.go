package cluster

import (
	"errors"
	"fmt"
	"testing"

	"silica/internal/gateway"
)

// TestDirectoryKeepsSlashedKeysApart: ("a/b", "c") and ("a", "b/c")
// join to one ring key but are two objects at every library, and HTTP
// reaches both (%2F in the account segment). Deleting one must leave
// the other readable: the directory is keyed by the pair, not by the
// joined ring key.
func TestDirectoryKeepsSlashedKeysApart(t *testing.T) {
	c := newLocalCluster(t, 3, 7)
	x, y := [2]string{"a/b", "c"}, [2]string{"a", "b/c"}
	if Key(x[0], x[1]) != Key(y[0], y[1]) {
		t.Fatal("the two objects no longer share a ring key: the test exercises nothing")
	}
	if _, err := c.Put(x[0], x[1], []byte("object x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(y[0], y[1], []byte("object y")); err != nil {
		t.Fatal(err)
	}
	if n := dirLen(c); n != 2 {
		t.Fatalf("directory holds %d keys after two puts, want 2", n)
	}
	if got, err := c.Get(x[0], x[1]); err != nil || string(got) != "object x" {
		t.Fatalf("get x = %q, %v", got, err)
	}
	if err := c.Delete(x[0], x[1]); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(y[0], y[1]); err != nil || string(got) != "object y" {
		t.Fatalf("get y after deleting x = %q, %v; an acknowledged write is gone", got, err)
	}
	if _, err := c.Get(x[0], x[1]); err == nil {
		t.Fatal("x still readable after its delete")
	}
	if n := dirLen(c); n != 1 {
		t.Fatalf("directory holds %d keys after the delete, want 1", n)
	}
}

// TestRouterRefusesReplicaNamespace: the router stores an object's
// redundancy copy under replicaPrefix+account, so a client writing to
// such an account could overwrite another tenant's copy. Every object
// operation on a reserved account is refused with gateway.ErrReserved,
// and the copy it would have hit still serves the real object after
// the primary's library dies.
func TestRouterRefusesReplicaNamespace(t *testing.T) {
	c := newLocalCluster(t, 2, 11)
	const account = "acme"
	impostor := replicaPrefix + account
	// A name whose impostor primary is acme/name's replica holder.
	name, primary := "", ""
	for i := 0; i < 1000 && name == ""; i++ {
		n := fmt.Sprintf("obj-%d", i)
		owners := c.ring.Owners(Key(account, n), 2)
		if c.ring.Owners(Key(impostor, n), 1)[0] == owners[1] {
			name, primary = n, owners[0]
		}
	}
	if name == "" {
		t.Fatal("no name puts the impostor on the replica holder")
	}
	if _, err := c.Put(account, name, []byte("real")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(impostor, name, []byte("impostor")); !errors.Is(err, gateway.ErrReserved) {
		t.Fatalf("put into the replica namespace: %v, want ErrReserved", err)
	}
	if _, err := c.Get(impostor, name); !errors.Is(err, gateway.ErrReserved) {
		t.Fatalf("get from the replica namespace: %v, want ErrReserved", err)
	}
	if err := c.Delete(impostor, name); !errors.Is(err, gateway.ErrReserved) {
		t.Fatalf("delete in the replica namespace: %v, want ErrReserved", err)
	}
	if err := c.KillLibrary(primary); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(account, name); err != nil || string(got) != "real" {
		t.Fatalf("get %s/%s from its replica = %q, %v, want \"real\"", account, name, got, err)
	}
}
