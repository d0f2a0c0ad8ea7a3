package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/service"
)

// API is the object interface the gateway serves. Both the in-process
// *Gateway and the HTTP *Client implement it, so tests and the load
// generator run identically over either transport.
type API interface {
	Put(account, name string, data []byte) (int, error)
	Get(account, name string) ([]byte, error)
	Delete(account, name string) error
	Flush() error
}

var (
	_ API = (*Gateway)(nil)
	_ API = (*Client)(nil)
)

// Client is the Go client for the gateway's HTTP API. HTTP statuses
// map back to the same typed errors the in-process API returns:
// 429 → ErrOverloaded, 404 → metadata.ErrNotFound,
// 503 → service.ErrUnavailable.
//
// Setting Retry runs every call under RetryPolicy.Do: jittered
// exponential-backoff retries for ErrOverloaded/ErrUnavailable
// responses that honor the server's Retry-After hint and stop as soon
// as the caller's ctx expires. Retry is nil by default: one attempt per
// call, so rejections reach callers that retry around the client
// (RunLoad runs the same loop over its own policy).
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Retry   *RetryPolicy

	retryCount *obs.Counter
}

// sharedTransport is one bounded connection pool for every Client in
// the process. Router and rebuild paths fan requests out to many peer
// daemons at once; per-client default transports would each grow their
// own idle pools (and leak ephemeral ports under churn), so all
// clients dial through this transport: connections to each peer are
// kept up to MaxIdleConnsPerHost and reaped after IdleConnTimeout.
// net/http pools a connection only when its reply body was read to EOF
// before Close, so every reply this client receives leaves through
// closeBody; a reply it stops reading costs the next request a dial.
// No daemon compresses its replies, so the transport asks for no gzip,
// and the client's own Timeout bounds each whole exchange.
var sharedTransport = &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   32,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   5 * time.Second,
	ExpectContinueTimeout: time.Second,
	DisableCompression:    true,
}

// NewClient returns a client for a gateway at baseURL
// (e.g. "http://127.0.0.1:7070"). All clients share one bounded
// transport; replace c.HTTP for custom transport behavior.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 60 * time.Second, Transport: sharedTransport},
	}
}

// CloseIdle releases the client's idle pooled connections. The
// transport is shared process-wide, so this reaps idle connections to
// every peer, not just this client's — the right semantics for "the
// router is done with its members": anything still in flight finishes,
// nothing idle lingers holding a port.
func (c *Client) CloseIdle() {
	if c.HTTP == nil {
		return
	}
	if t, ok := c.HTTP.Transport.(interface{ CloseIdleConnections() }); ok && t != nil {
		t.CloseIdleConnections()
	}
}

// RetryPolicy shapes the client's backoff on retryable rejections.
type RetryPolicy struct {
	// MaxRetries bounds re-attempts after the first try (so a request
	// runs at most MaxRetries+1 times).
	MaxRetries int
	// BaseBackoff is the first retry's delay; each later retry doubles
	// it, capped at MaxBackoff. A zero MaxBackoff holds every retry at
	// BaseBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac spreads each delay uniformly over
	// [1-JitterFrac, 1+JitterFrac] to decorrelate competing clients.
	JitterFrac float64
	// Seed makes the jitter sequence reproducible in tests.
	Seed uint64

	mu  sync.Mutex
	rng uint64
}

// DefaultRetryPolicy suits closed-loop archival clients: patient, with
// enough spread that herds of rejected writers don't re-arrive in step.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{
		MaxRetries:  8,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		JitterFrac:  0.5,
		Seed:        1,
	}
}

// delay computes the jittered backoff for the given attempt (0-based).
func (p *RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 0; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.JitterFrac > 0 {
		p.mu.Lock()
		if p.rng == 0 {
			p.rng = p.Seed | 1
		}
		// xorshift64: cheap, deterministic, good enough for jitter.
		x := p.rng
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.rng = x
		p.mu.Unlock()
		u := float64(x>>11) / (1 << 53) // [0,1)
		d = time.Duration(float64(d) * (1 - p.JitterFrac + 2*p.JitterFrac*u))
	}
	return d
}

// Do runs f until it succeeds, fails with an error that is not
// retryable, or has been retried MaxRetries times, and returns f's last
// error. Each wait is the larger of the policy's jittered backoff and
// the server's Retry-After hint; onRetry, when set, hears of each retry
// before its wait. ctx expiry before an attempt or during a wait ends
// the loop with ctx's error wrapped. A nil policy makes one attempt.
func (p *RetryPolicy) Do(ctx context.Context, f func() error, onRetry func()) error {
	if p == nil {
		return f()
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("gateway: retry gave up: %w", err)
		}
		err := f()
		if err == nil || !retryable(err) || attempt >= p.MaxRetries {
			return err
		}
		delay := p.delay(attempt)
		if hint, ok := RetryAfterHint(err); ok && hint > delay {
			delay = hint
		}
		if onRetry != nil {
			onRetry()
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("gateway: retry gave up: %w (last: %v)", ctx.Err(), err)
		case <-timer.C:
		}
	}
}

// retryAfterError carries the server's Retry-After hint through the
// typed error chain.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// RetryAfterHint extracts the server's Retry-After backoff hint from a
// client error, if one was attached.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// retryable reports whether err is a backpressure signal worth
// re-attempting: admission rejection or temporary unavailability.
func retryable(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, service.ErrUnavailable)
}

// Instrument registers the client's retry counter
// (silica_client_retries_total) into reg.
func (c *Client) Instrument(reg *obs.Registry) {
	c.retryCount = reg.Counter("silica_client_retries_total",
		"Client retries after 429/503 rejections.")
}

func (c *Client) countRetry() {
	if c.retryCount != nil {
		c.retryCount.Inc()
	}
}

func (c *Client) objectURL(account, name string) string {
	return c.BaseURL + "/v1/objects/" + url.PathEscape(account) + "/" + url.PathEscape(name)
}

// drainBound is the most of a reply body closeBody reads past what its
// caller consumed. net/http's server discards up to 256 KiB of an
// unread request body for the same reason; the replies this client
// leaves unread ({"deleted":true}, an error text) are a few bytes.
const drainBound = 64 << 10

// closeBody reads what is left of a reply body, up to drainBound, and
// closes it. A body read to EOF hands its connection back to the
// transport's idle pool; one longer than the bound is closed unread,
// and its connection with it. A drain that fails costs only the
// connection, so its error is dropped.
func closeBody(resp *http.Response) {
	if n := resp.ContentLength; n >= 0 && n <= drainBound {
		io.Copy(io.Discard, resp.Body) // bounded by its length, without CopyN's LimitedReader
	} else {
		io.CopyN(io.Discard, resp.Body, drainBound)
	}
	resp.Body.Close()
}

// decodeError turns a non-2xx response into a typed error. The reason
// is the JSON {"error": …} field when the body holds one, else the
// body's trimmed text (http.Error's plain-text replies), else the
// status line; only the body's first 4 KiB are read. A Retry-After
// header (integer or fractional seconds) rides along as a
// RetryAfterHint on retryable statuses.
func decodeError(resp *http.Response) error {
	text, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var body struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(text))
	if json.Unmarshal(text, &body) == nil && body.Error != "" {
		msg = body.Error
	} else if msg == "" {
		msg = resp.Status
	}
	var err error
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		err = fmt.Errorf("%w: %s", ErrOverloaded, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", metadata.ErrNotFound, msg)
	case http.StatusServiceUnavailable:
		err = fmt.Errorf("%w: %s", service.ErrUnavailable, msg)
	default:
		return fmt.Errorf("gateway: http %d: %s", resp.StatusCode, msg)
	}
	if secs, perr := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64); perr == nil && secs > 0 {
		err = &retryAfterError{err: err, after: time.Duration(secs * float64(time.Second))}
	}
	return err
}

// send issues one request and hands a 2xx response to read (nil
// discards it); any other status comes back as decodeError's typed
// error. A non-nil body is sent as is, labelled contentType when set.
// Whatever read leaves of the body is drained by closeBody.
func (c *Client) send(ctx context.Context, method, url string, body []byte, contentType string,
	read func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if read == nil {
		return nil
	}
	return read(resp)
}

// Call is the one path every JSON request takes: method on path
// (relative to BaseURL), in marshalled as the body when non-nil, the
// 2xx answer decoded into out when non-nil. Routes this client has no
// typed method for (the router's /v1/cluster*) go through it too, so
// they share the bounded transport and the typed errors.
func (c *Client) Call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body, contentType = b, "application/json"
	}
	var read func(*http.Response) error
	if out != nil {
		read = func(resp *http.Response) error { return json.NewDecoder(resp.Body).Decode(out) }
	}
	return c.send(ctx, method, c.BaseURL+path, body, contentType, read)
}

// Put uploads data and returns the version written.
func (c *Client) Put(account, name string, data []byte) (int, error) {
	return c.PutCtx(context.Background(), account, name, data)
}

// PutCtx is Put under ctx: the request carries the caller's deadline,
// and the retry policy (if set) stops as soon as ctx expires.
func (c *Client) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	var out struct {
		Version int `json:"version"`
	}
	err := c.Retry.Do(ctx, func() error {
		return c.send(ctx, http.MethodPut, c.objectURL(account, name), data, "", func(resp *http.Response) error {
			reply, err := readBody(nil, resp.Body, resp.ContentLength)
			if err == nil {
				err = json.Unmarshal(reply, &out)
			}
			if err != nil {
				return fmt.Errorf("gateway: decoding put response: %w", err)
			}
			return nil
		})
	}, c.countRetry)
	return out.Version, err
}

// Get downloads the latest version of an object.
func (c *Client) Get(account, name string) ([]byte, error) {
	return c.GetInto(context.Background(), account, name, nil)
}

// GetInto is Get under ctx with the client's retry policy, reading the
// reply into dst's backing array when its capacity covers the declared
// length.
func (c *Client) GetInto(ctx context.Context, account, name string, dst []byte) ([]byte, error) {
	var data []byte
	err := c.Retry.Do(ctx, func() error {
		return c.send(ctx, http.MethodGet, c.objectURL(account, name), nil, "", func(resp *http.Response) (err error) {
			data, err = readBody(dst, resp.Body, resp.ContentLength)
			return err
		})
	}, c.countRetry)
	return data, err
}

// Delete removes an object.
func (c *Client) Delete(account, name string) error {
	return c.DeleteCtx(context.Background(), account, name)
}

// DeleteCtx is Delete under ctx with the client's retry policy.
func (c *Client) DeleteCtx(ctx context.Context, account, name string) error {
	return c.Retry.Do(ctx, func() error {
		return c.send(ctx, http.MethodDelete, c.objectURL(account, name), nil, "", nil)
	}, c.countRetry)
}

// Flush asks the daemon to drain its staging tier.
func (c *Client) Flush() error {
	return c.FlushCtx(context.Background())
}

// FlushCtx is Flush under ctx with the client's retry policy.
func (c *Client) FlushCtx(ctx context.Context) error {
	return c.Retry.Do(ctx, func() error {
		return c.send(ctx, http.MethodPost, c.BaseURL+"/v1/flush", nil, "", nil)
	}, c.countRetry)
}

// HealthPlatters fetches the per-platter health registry snapshot.
func (c *Client) HealthPlatters() (out repair.Snapshot, err error) {
	err = c.Call(context.Background(), http.MethodGet, "/v1/health/platters", nil, &out)
	return out, err
}

// Repair asks the daemon to fail and rebuild a platter.
func (c *Client) Repair(id media.PlatterID) error {
	return c.Call(context.Background(), http.MethodPost, fmt.Sprintf("/v1/repair/%d", id), nil, nil)
}

// MetricsText fetches the daemon's raw Prometheus text exposition.
func (c *Client) MetricsText() (string, error) {
	var text []byte
	err := c.send(context.Background(), http.MethodGet, c.BaseURL+"/metrics", nil, "", func(resp *http.Response) (err error) {
		text, err = io.ReadAll(resp.Body)
		return err
	})
	return string(text), err
}

// Metrics fetches and parses the daemon's /metrics exposition
// (silicactl top and silica-load's end-of-run scrape).
func (c *Client) Metrics() (samples []obs.PromSample, err error) {
	err = c.send(context.Background(), http.MethodGet, c.BaseURL+"/metrics", nil, "", func(resp *http.Response) (err error) {
		samples, err = obs.ParseProm(resp.Body)
		return err
	})
	return samples, err
}

// Healthz fetches the liveness/redundancy summary. A degraded service
// answers 503 with a body; that is still a successful probe, so both
// the 200 and 503 payloads decode into Healthz.
func (c *Client) Healthz() (Healthz, error) {
	var h Healthz
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/v1/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return h, err
	}
	defer closeBody(resp)
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusServiceUnavailable {
		return h, decodeError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}
