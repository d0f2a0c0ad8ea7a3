package gateway_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"silica/internal/cluster"
	"silica/internal/gateway"
	"silica/internal/voxel"
)

// TestPooledRepliesAreNeverShared: the GET route decodes into a reply
// buffer from a pool and puts it back once the reply is written. Many
// concurrent GETs of objects of different sizes, durable and staged,
// on the library daemon and on the router, each get their own bytes.
// On the library, a GET is also abandoned while its worker is stalled
// in a media read: the worker goes on decoding into the route's buffer
// after the route has answered, so that buffer must not go back to the
// pool, or the GETs racing it would read another object's bytes.
func TestPooledRepliesAreNeverShared(t *testing.T) {
	cfg := quietConfig()
	cfg.Service.Channel = voxel.CleanChannel()
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	c, err := cluster.NewLocal(cluster.LocalConfig{Libraries: 3, Gateway: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	sizes := []int{1, 100, 2000, 4096, 5000, 9000}
	objects := make(map[string][]byte)
	for i, size := range append(sizes, sizes...) {
		data := make([]byte, size)
		rng := rand.New(rand.NewPCG(uint64(i), 1))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		objects[fmt.Sprintf("o%02d", i)] = data
	}
	for _, daemon := range []struct {
		name  string
		store interface{ Flush() error }
		srv   *httptest.Server
	}{{"library", g, httptest.NewServer(g.Handler())}, {"router", c, httptest.NewServer(c.Handler())}} {
		t.Run(daemon.name, func(t *testing.T) {
			t.Cleanup(daemon.srv.Close)
			client := gateway.NewClient(daemon.srv.URL)
			t.Cleanup(client.CloseIdle)
			// The first half is flushed to glass; the second stays staged.
			for i := 0; i < len(objects); i++ {
				name := fmt.Sprintf("o%02d", i)
				if _, err := client.Put("acct", name, objects[name]); err != nil {
					t.Fatal(err)
				}
				if i == len(sizes)-1 {
					if err := daemon.store.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Concurrent GETs over every object, rounds times and until
			// the given time.
			getAll := func(rounds int, until time.Time) {
				const clients = 8
				var wg sync.WaitGroup
				errs := make(chan error, clients)
				for w := 0; w < clients; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < rounds*len(objects) || time.Now().Before(until); i++ {
							name := fmt.Sprintf("o%02d", (i+w)%len(objects))
							got, err := client.Get("acct", name)
							if err != nil || !bytes.Equal(got, objects[name]) {
								errs <- fmt.Errorf("client %d, %s: %d of %d bytes, byte-exact=%v, err=%v",
									w, name, len(got), len(objects[name]), bytes.Equal(got, objects[name]), err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			}
			getAll(1, time.Time{}) // fills the pool with buffers that fit every object
			for i := 0; daemon.name == "library" && i < 3; i++ {
				// Until well after the stalled worker has resumed.
				getAll(0, abandonStalledGet(t, g, client).Add(100*time.Millisecond))
			}
			getAll(3, time.Time{})
		})
	}
}

// abandonStalledGet stalls the next media read and abandons a GET of a
// durable object on it. It returns once the route has answered, while
// the stalled worker still holds the route's buffer, with the time the
// stall ends.
func abandonStalledGet(t *testing.T, g *gateway.Gateway, client *gateway.Client) time.Time {
	t.Helper()
	const stall = 300 * time.Millisecond
	if err := g.Faults().ArmString(fmt.Sprintf("op=media.read,mode=latency,latency=%v,count=1", stall)); err != nil {
		t.Fatal(err)
	}
	resumes, canceled := time.Now().Add(stall), g.Counters().Canceled
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.GetInto(ctx, "acct", "o05", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled GET: %v, want the client's deadline", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Counters().Canceled == canceled {
		if time.Now().After(deadline) {
			t.Fatal("the route never saw the GET abandoned")
		}
		time.Sleep(time.Millisecond)
	}
	return resumes
}
