package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"silica/internal/gateway"
)

// Handler returns the router's HTTP API: the object surface a single
// library serves, mounted by the same gateway.MountObjects so clients
// (and gateway.Client) cannot tell a cluster from one library, plus the
// router's own health summary and the /v1/cluster* admin routes. The
// route table is DESIGN.md "HTTP surface".
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	// Library.Flush takes no context, so the request's cannot reach the
	// members: a flush the caller abandons still runs to completion.
	flush := func(context.Context) error { return c.Flush() }
	gateway.MountObjects(mux, c, flush, c.reg, c.cfg.RetryAfter)
	mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	mux.HandleFunc("GET /v1/cluster", c.handleStatus)
	mux.HandleFunc("POST /v1/cluster/rebalance", c.handleRebalance)
	mux.HandleFunc("POST /v1/cluster/drain", c.handleDrain)
	return mux
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if c.Degraded() {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	gateway.WriteJSON(w, code, map[string]string{"status": status})
}

func (c *Cluster) handleStatus(w http.ResponseWriter, r *http.Request) {
	gateway.WriteJSON(w, http.StatusOK, c.Status())
}

// handleRebalance runs a reconcile pass. ?workers=N sets its
// parallelism (0 or absent = the default). Per-key failures do not
// fail the request — they are the report's Errors/ErrorSamples fields,
// which is the whole point of aggregating them — so an error status is
// reserved for failures the report cannot express (cancellation, no
// members).
func (c *Cluster) handleRebalance(w http.ResponseWriter, r *http.Request) {
	workers := 0
	if v := r.URL.Query().Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "workers: need a non-negative integer", http.StatusBadRequest)
			return
		}
		workers = n
	}
	rep, err := c.Rebalance(r.Context(), workers)
	if err != nil && (rep.Errors == 0 || r.Context().Err() != nil) {
		gateway.WriteServiceError(w, err, c.cfg.RetryAfter)
		return
	}
	gateway.WriteJSON(w, http.StatusOK, rep)
}

// DrainRequest is the POST /v1/cluster/drain body.
type DrainRequest struct {
	Library string `json:"library"`
}

func (c *Cluster) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Library == "" {
		http.Error(w, `body: need {"library":"name"}`, http.StatusBadRequest)
		return
	}
	rep, err := c.DrainLibrary(r.Context(), req.Library)
	if err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrUnknownLibrary) {
			code = http.StatusNotFound
		}
		gateway.WriteError(w, code, err)
		return
	}
	gateway.WriteJSON(w, http.StatusOK, rep)
}

// FetchStatus reads GET /v1/cluster from a router at baseURL —
// silicactl's data source — through gateway.Client, so it shares the
// bounded transport and the typed errors. A non-nil hc replaces the
// client's HTTP transport.
func FetchStatus(hc *http.Client, baseURL string) (Status, error) {
	cl := gateway.NewClient(baseURL)
	if hc != nil {
		cl.HTTP = hc
	}
	var st Status
	err := cl.Call(context.Background(), http.MethodGet, "/v1/cluster", nil, &st)
	return st, err
}
