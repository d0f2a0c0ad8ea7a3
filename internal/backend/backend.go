// Package backend is the seam between the serving stack and the
// library's mechanical reality. Every media touch the service makes —
// flush burns, foreground reads, scrub samples, rebuild member reads —
// is charged to a Backend as a track-span operation. Two
// implementations exist: Direct, the zero-cost path (today's
// behaviour, the default), and Twin, which routes each operation
// through a calibrated library.Library digital twin so drive
// allocation, shuttle motion, mount/seek latency, and the paper's
// scheduling policies become observable through the live HTTP stack.
//
// Determinism contract (DESIGN.md §8, §12): a Backend only adds
// latency. Bytes stored and returned are identical under Direct and
// Twin; only timing differs.
package backend

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/obs"
)

// OpKind classifies a media touch for scheduling arbitration.
type OpKind int

const (
	// OpRead is a foreground customer read of a track span.
	OpRead OpKind = iota
	// OpBurn is write-path media production: burning a platter.
	OpBurn
	// OpScrub is a background health sample.
	OpScrub
	// OpRebuildRead is a repair member read feeding a reconstruction.
	OpRebuildRead

	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpBurn:
		return "burn"
	case OpScrub:
		return "scrub"
	case OpRebuildRead:
		return "rebuild_read"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one mechanical operation: a span of tracks on one platter.
type Op struct {
	Kind       OpKind
	Platter    media.PlatterID
	StartTrack int
	TrackCount int
	Bytes      int64
}

// Span is the mechanical cost charged to one Op: wall time actually
// spent waiting (after the speedup throttle) and the virtual seconds
// the operation took inside the twin. Direct returns the zero Span.
type Span struct {
	Wall    float64 `json:"wall_seconds"`
	Virtual float64 `json:"virtual_seconds"`
}

// Backend charges mechanical latency for media operations.
type Backend interface {
	// Do blocks until the operation's mechanical cost has elapsed (or
	// ctx is cancelled / the backend closes) and returns the charged
	// span. Do never affects bytes — callers perform the actual media
	// I/O themselves.
	Do(ctx context.Context, op Op) (Span, error)
	// Close drains and stops the backend. Do calls in flight complete.
	Close() error
}

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("backend: closed")

// DefaultSpeedup is the twin's virtual-to-wall clock ratio when the
// configuration leaves it zero.
const DefaultSpeedup = 200

// ParsePolicy maps a flag value to a library policy.
func ParsePolicy(name string) (library.Policy, error) {
	switch name {
	case "silica", "":
		return library.PolicySilica, nil
	case "sp":
		return library.PolicySP, nil
	case "ns":
		return library.PolicyNS, nil
	default:
		return 0, fmt.Errorf("backend: unknown policy %q (want silica|sp|ns)", name)
	}
}

// Direct is the zero-cost backend: every operation completes
// instantly. This is the historical serving behaviour and the default.
type Direct struct{}

// Do returns immediately with a zero span (after a cancellation check,
// so Direct and Twin agree on ctx semantics).
func (Direct) Do(ctx context.Context, op Op) (Span, error) {
	if err := ctx.Err(); err != nil {
		return Span{}, err
	}
	return Span{}, nil
}

func (Direct) Close() error { return nil }

// RegisterInfo publishes which backend serves a library as the constant
// gauge silica_backend_info{backend,policy,speedup} 1. Policy and
// speedup are empty for the direct backend.
func RegisterInfo(reg *obs.Registry, kind, policy string, speedup float64) {
	sp := ""
	if speedup > 0 {
		sp = strconv.FormatFloat(speedup, 'g', -1, 64)
	}
	reg.Gauge("silica_backend_info", "The media backend serving this library: 1, labelled with its kind, policy and speedup.",
		obs.L("backend", kind), obs.L("policy", policy), obs.L("speedup", sp)).Set(1)
}
