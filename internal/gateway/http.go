package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/service"
	"silica/internal/staging"
)

// The routes, which daemon serves each, and the error→status mapping
// are stated once, in DESIGN.md "HTTP surface". This file holds the
// half of that surface the library daemon and the cluster router both
// serve (MountObjects and the response writers) and the library-only
// admin routes.

// MaxObjectBytes caps a single PUT body; larger files belong to a
// multipart path this reproduction does not model.
const MaxObjectBytes = 64 << 20

// ObjectStore is what the object routes need behind them: one library
// (*Gateway) or the multi-library router (*cluster.Cluster).
type ObjectStore interface {
	PutCtx(ctx context.Context, account, name string, data []byte) (int, error)
	GetInto(ctx context.Context, account, name string, dst []byte) ([]byte, error)
	DeleteCtx(ctx context.Context, account, name string) error
}

// MountObjects registers the object surface on mux: PUT/GET/DELETE
// /v1/objects/{account}/{name...}, POST /v1/flush and GET /metrics.
// Both daemons call it, so a client cannot tell a cluster from one
// library; only what is behind the routes differs — the store, its
// flush, the registry to expose, and the Retry-After backoff hint.
func MountObjects(mux *http.ServeMux, store ObjectStore, flush func(context.Context) error,
	reg *obs.Registry, retryAfter time.Duration) {
	object := func(serve func(w http.ResponseWriter, r *http.Request, account, name string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			account, name := r.PathValue("account"), r.PathValue("name")
			if account == "" || name == "" {
				http.Error(w, "need /v1/objects/{account}/{name}", http.StatusBadRequest)
				return
			}
			if err := serve(w, r, account, name); err != nil {
				WriteServiceError(w, err, retryAfter)
			}
		}
	}
	mux.HandleFunc("PUT /v1/objects/{account}/{name...}", object(
		func(w http.ResponseWriter, r *http.Request, account, name string) error {
			data, err := readBody(nil, http.MaxBytesReader(w, r.Body, MaxObjectBytes), r.ContentLength)
			if err != nil {
				// 413 is for bodies past MaxObjectBytes; a truncated
				// or overlong body is malformed.
				var tooBig *http.MaxBytesError
				code := http.StatusBadRequest
				if errors.As(err, &tooBig) {
					code = http.StatusRequestEntityTooLarge
				}
				http.Error(w, "body: "+err.Error(), code)
				return nil
			}
			version, err := store.PutCtx(r.Context(), account, name, data)
			if err != nil {
				return err
			}
			w.Header()["Content-Type"] = jsonType
			reply := append(make([]byte, 0, 32), `{"version":`...)
			reply = strconv.AppendInt(reply, int64(version), 10)
			w.Write(append(reply, "}\n"...))
			return nil
		}))
	mux.HandleFunc("GET /v1/objects/{account}/{name...}", object(
		func(w http.ResponseWriter, r *http.Request, account, name string) error {
			// The whole object is decoded before a byte leaves, so a
			// failed decode still answers with its error status.
			buf := replies.Get().(*[]byte)
			data, err := store.GetInto(r.Context(), account, name, (*buf)[:0])
			if err != nil {
				// Not pooled: an abandoned Get's worker may still write it.
				return err
			}
			w.Header()["Content-Type"] = octetType
			w.Header()["Content-Length"] = []string{strconv.Itoa(len(data))} // not chunked; HEAD reports it
			w.Write(data)
			if cap(data) <= maxPooledReply {
				*buf = data[:0] // else *buf goes back as it was
			}
			replies.Put(buf)
			return nil
		}))
	mux.HandleFunc("DELETE /v1/objects/{account}/{name...}", object(
		func(w http.ResponseWriter, r *http.Request, account, name string) error {
			if err := store.DeleteCtx(r.Context(), account, name); err != nil {
				return err
			}
			w.Header()["Content-Type"] = jsonType
			w.Write(deletedReply)
			return nil
		}))
	mux.HandleFunc("POST /v1/flush", func(w http.ResponseWriter, r *http.Request) {
		if err := flush(r.Context()); err != nil {
			WriteServiceError(w, err, retryAfter)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"flushed": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
}

// The object routes' fixed reply parts: shared header values and the
// bytes WriteJSON would encode, without a map or an encoder per request.
var (
	jsonType     = []string{"application/json"}
	octetType    = []string{"application/octet-stream"}
	deletedReply = []byte("{\"deleted\":true}\n")
)

// replies holds the GET route's reply buffers: a Get decodes into one,
// and the route puts it back once the reply is written. maxPooledReply
// bounds the buffer kept, so one large object does not pin its size.
var replies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

// readBody reads a PUT body, or a reply to the client, of its declared
// length into dst's backing array, or into a new buffer of exactly that
// length when dst's capacity is short, then reads one byte more so a
// body longer than declared shows. An unknown length, or one past
// MaxObjectBytes, takes io.ReadAll.
func readBody(dst []byte, body io.Reader, size int64) ([]byte, error) {
	if size < 0 || size > MaxObjectBytes {
		return io.ReadAll(body)
	}
	b := dst[:0]
	if b == nil || int64(cap(b)) < size { // never nil: an empty body reads as empty
		b = make([]byte, size)
	}
	b = b[:size]
	if _, err := io.ReadFull(body, b); err != nil {
		return nil, err
	}
	var probe [1]byte
	if n, _ := io.ReadFull(body, probe[:]); n != 0 {
		return nil, errors.New("body longer than its Content-Length")
	}
	return b, nil
}

// WriteJSON answers with status code and v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with status code and the {"error": …} body every
// JSON failure carries (Client.decodeError reads it back).
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// statusClientClosedRequest is the nginx convention for "the caller
// went away before we answered"; no stdlib constant exists.
const statusClientClosedRequest = 499

// WriteServiceError maps a storage-path error onto its HTTP status.
// Every retryable status (429 and 503) carries a Retry-After header
// with the server's backoff hint so well-behaved clients pace
// themselves. The hint is formatted as seconds with fractional
// precision — standard delta-seconds for whole values, and our own
// client understands the fractional form tests rely on for fast retry
// loops.
func WriteServiceError(w http.ResponseWriter, err error, retryAfter time.Duration) {
	code, backoff := http.StatusInternalServerError, false
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, staging.ErrCapacity):
		code, backoff = http.StatusTooManyRequests, true
	case errors.Is(err, ErrClosed), errors.Is(err, service.ErrUnavailable), errors.Is(err, faults.ErrInjected):
		code, backoff = http.StatusServiceUnavailable, true
	case errors.Is(err, metadata.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrReserved):
		code = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = statusClientClosedRequest
	}
	if backoff {
		w.Header().Set("Retry-After", strconv.FormatFloat(retryAfter.Seconds(), 'g', -1, 64))
	}
	WriteError(w, code, err)
}

// Handler returns the library daemon's HTTP API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	MountObjects(mux, g, g.FlushCtx, g.reg, g.cfg.RetryAfter)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/health/platters", g.handleHealthPlatters)
	mux.HandleFunc("POST /v1/repair/{platter}", g.handleRepair)
	mux.HandleFunc("GET /v1/traces", g.handleTraces)
	mux.HandleFunc("POST /v1/faults", g.handleFaultsArm)
	mux.HandleFunc("GET /v1/faults", g.handleFaultsList)
	mux.HandleFunc("DELETE /v1/faults", g.handleFaultsClear)
	return mux
}

// Healthz is the /v1/healthz payload.
type Healthz struct {
	Status         string `json:"status"` // "ok" | "degraded"
	DegradedSets   int    `json:"degraded_sets,omitempty"`
	RebuildsActive int64  `json:"rebuilds_active,omitempty"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{Status: "ok", DegradedSets: g.svc.DegradedSets()}
	if g.repair != nil {
		h.RebuildsActive = g.repair.RebuildsActive()
	}
	code := http.StatusOK
	if h.DegradedSets > 0 || h.RebuildsActive > 0 {
		h.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

func (g *Gateway) handleHealthPlatters(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, g.HealthPlatters())
}

func (g *Gateway) handleRepair(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("platter"))
	if err != nil {
		http.Error(w, "need /v1/repair/{platter} with a numeric platter id", http.StatusBadRequest)
		return
	}
	if err := g.RequestRepair(media.PlatterID(id)); err != nil {
		code := http.StatusConflict
		if errors.Is(err, repair.ErrUnknownPlatter) {
			code = http.StatusNotFound
		}
		WriteError(w, code, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"queued": true})
}

// FaultsRequest is the POST /v1/faults body: structured rules, string
// rules in the faults.ParseRule grammar, or both.
type FaultsRequest struct {
	Rules []faults.Rule `json:"rules,omitempty"`
	Arm   []string      `json:"arm,omitempty"`
}

// FaultsPayload reports the injector state after any mutation.
type FaultsPayload struct {
	Total int64               `json:"total_injected"`
	Rules []faults.RuleStatus `json:"rules"`
}

func (g *Gateway) faultsPayload() FaultsPayload {
	inj := g.Faults()
	p := FaultsPayload{Total: inj.Total(), Rules: inj.Snapshot()}
	if p.Rules == nil {
		p.Rules = []faults.RuleStatus{}
	}
	return p
}

func (g *Gateway) handleFaultsArm(w http.ResponseWriter, r *http.Request) {
	var req FaultsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "body: "+err.Error(), http.StatusBadRequest)
		return
	}
	inj := g.Faults()
	for _, rule := range req.Rules {
		if err := inj.Arm(rule); err != nil {
			http.Error(w, "rule: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	for _, s := range req.Arm {
		if err := inj.ArmString(s); err != nil {
			http.Error(w, "rule: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	WriteJSON(w, http.StatusOK, g.faultsPayload())
}

func (g *Gateway) handleFaultsList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, g.faultsPayload())
}

func (g *Gateway) handleFaultsClear(w http.ResponseWriter, r *http.Request) {
	g.Faults().Clear()
	WriteJSON(w, http.StatusOK, g.faultsPayload())
}
