package dash

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// ManifestDTO is the wire form of a manifest (the MPD equivalent,
// serialized as JSON for simplicity).
type ManifestDTO struct {
	Title           string    `json:"title"`
	Genre           string    `json:"genre"`
	DurationSec     float64   `json:"duration_sec"`
	SegmentDuration float64   `json:"segment_duration_sec"`
	Representations []RungDTO `json:"representations"`
}

// RungDTO is one representation in the wire manifest.
type RungDTO struct {
	ID      string  `json:"id"` // e.g. "1080p60"
	Width   int     `json:"width"`
	Height  int     `json:"height"`
	FPS     int     `json:"fps"`
	Bitrate float64 `json:"bitrate_bps"`
}

// DTO converts a manifest to its wire form.
func (m *Manifest) DTO() ManifestDTO {
	dto := ManifestDTO{
		Title:           m.Video.Title,
		Genre:           m.Video.Genre.String(),
		DurationSec:     m.Video.Duration.Seconds(),
		SegmentDuration: m.Video.SegmentDuration.Seconds(),
	}
	for _, r := range m.Rungs {
		w, h := r.Resolution.Dimensions()
		dto.Representations = append(dto.Representations, RungDTO{
			ID:      rungID(r),
			Width:   w,
			Height:  h,
			FPS:     r.FPS,
			Bitrate: float64(r.Bitrate),
		})
	}
	return dto
}

// rungID names a rung the way URLs and the manifest do: "1080p60".
func rungID(r Rung) string {
	return r.Resolution.String() + strconv.Itoa(r.FPS)
}

// Server serves a manifest and synthetic segments over HTTP, standing
// in for the paper's Apache video server (§4.1). Routes:
//
//	GET /manifest.json
//	GET /video/<repID>/<segment>       e.g. /video/720p30/17
//	GET /metrics                       request counters as JSON
//
// Serving metrics lets a load test see what the paper's Apache logs
// showed: which rungs clients actually fetch under pressure. With a
// cdn.Cache attached, segments are served through the cache (and
// /metrics grows dash.cache.* series); with a cdn.Chaos attached,
// every segment request passes the chaos gate first (dash.chaos.*
// series); with a cdn.Governor, dash.admit.*, dash.brownout.* and
// dash.quota.* series follow. The request path is lock-free: its
// counters are plain atomics, so a thousand concurrent players measure
// the serving path, not a metrics mutex. Each snapshot records them,
// and each attached subsystem's stats, into a fresh
// telemetry.Registry.
//
// Segment bodies are read-only views of one process-wide filler
// buffer (see synthBody), so serving a segment copies nothing, and
// every cached body shares that buffer.
//
// ServeHTTP sends a segment GET straight to the segment handler,
// without ServeMux routing, when its URL path starts with /video/ and
// is already clean (path.Clean leaves it unchanged, so it has no "."
// or ".." element, no "//" and no trailing "/"): for such a path the
// mux would pick the same handler and redirect nothing. Every other request (HEAD and other methods,
// unclean paths the mux answers with a 301, the manifest and /metrics)
// goes through the mux. The segment handler reads each response's
// size, Content-Length value and cache key from a table built once per
// server, so it formats nothing per request.
type Server struct {
	manifest *Manifest
	mux      *http.ServeMux

	manifestReqs atomic.Int64
	inflight     atomic.Int64

	// ladder is the manifest's rungs sorted by ascending bitrate, with
	// ladderIdx mapping (resolution, fps) -> ladder position and ids[i]
	// naming ladder[i]; fixed at construction so a request finds its
	// rung, its demotion and its name without formatting anything.
	// served[i] counts the requests and bytes served at ladder[i].
	ladder    []Rung
	ladderIdx map[rungKey]int
	ids       []string
	served    []rungCounters
	// segs[i][seg] is segment seg's response at ladder[i].
	segs [][]segEntry

	cache    *cdn.Cache
	chaos    *cdn.Chaos
	governor *cdn.Governor
}

// rungKey identifies a representation.
type rungKey struct {
	res Resolution
	fps int
}

// segEntry is one segment's response at one rung, fixed at
// construction. length is shared by every response that carries it,
// so nothing may write to it; its capacity is its length, so an
// append copies instead.
type segEntry struct {
	size   units.Bytes
	length []string // Content-Length header value
	key    string   // canonical cache key, "<repID>/<segment>"
}

// contentType is every segment response's Content-Type header value,
// shared read-only like segEntry.length.
var contentType = []string{"video/mp4"}

// rungCounters are one representation's hot-path counters.
type rungCounters struct {
	requests atomic.Int64
	bytes    atomic.Int64
}

// ServerOptions attaches the optional serving subsystems.
type ServerOptions struct {
	// Cache serves segment bodies through a cdn.Cache (admission, LRU,
	// coalescing). Cached bodies are views of one shared read-only
	// buffer, so the cache's Capacity bounds the logical bytes it
	// holds, not resident memory: the buffer is sized by the largest
	// segment served, however many entries share it.
	Cache *cdn.Cache
	// Chaos gates every segment request through a server-side fault
	// plan (5xx bursts, injected latency, origin slowdown). Manifest
	// and /metrics requests bypass the gate: telemetry must stay
	// reachable mid-storm, like a real CDN's health endpoints.
	Chaos *cdn.Chaos
	// Governor puts an admission controller in front of the segment
	// path: concurrency/queue limits with fast 503 shedding,
	// per-tenant quotas (429), and brownout rung demotion. Manifest
	// and /metrics bypass it, like the chaos gate.
	Governor *cdn.Governor
}

// NewServer builds the handler for one video with no cache or chaos.
func NewServer(m *Manifest) *Server {
	return NewServerOpts(m, ServerOptions{})
}

// NewServerOpts builds the handler with optional cache and chaos.
func NewServerOpts(m *Manifest, opts ServerOptions) *Server {
	s := &Server{
		manifest: m,
		mux:      http.NewServeMux(),
		cache:    opts.Cache,
		chaos:    opts.Chaos,
		governor: opts.Governor,
	}
	s.ladder = append(s.ladder, m.Rungs...)
	sort.Slice(s.ladder, func(i, j int) bool {
		if s.ladder[i].Bitrate != s.ladder[j].Bitrate {
			return s.ladder[i].Bitrate < s.ladder[j].Bitrate
		}
		return s.ladder[i].FPS < s.ladder[j].FPS
	})
	s.ladderIdx = make(map[rungKey]int, len(s.ladder))
	s.ids = make([]string, len(s.ladder))
	for i, r := range s.ladder {
		s.ladderIdx[rungKey{r.Resolution, r.FPS}] = i
		s.ids[i] = rungID(r)
	}
	s.served = make([]rungCounters, len(s.ladder))
	n := m.Video.Segments()
	entries := make([]segEntry, len(s.ladder)*n)
	lengths := make([]string, len(entries))
	s.segs = make([][]segEntry, len(s.ladder))
	for i, r := range s.ladder {
		s.segs[i] = entries[i*n : (i+1)*n : (i+1)*n]
		for seg := range s.segs[i] {
			j := i*n + seg
			size := m.Video.SegmentBytes(r, seg)
			lengths[j] = strconv.FormatInt(int64(size), 10)
			s.segs[i][seg] = segEntry{
				size:   size,
				length: lengths[j : j+1 : j+1],
				key:    s.ids[i] + "/" + strconv.Itoa(seg),
			}
		}
	}
	s.mux.HandleFunc("GET /manifest.json", s.handleManifest)
	s.mux.HandleFunc("GET /video/", s.handleSegment)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	// path.Clean strips a trailing "/", so a clean path has none.
	if p := r.URL.Path; r.Method == http.MethodGet && strings.HasPrefix(p, "/video/") && path.Clean(p) == p {
		s.handleSegment(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// MetricsSnapshot returns every metric series as a (name -> value)
// map: the server counters plus, when attached, the cache, chaos and
// governor series. Every rung has its series, at zero until served.
// This is the body /metrics serializes, exposed so the binary can
// flush final numbers after a graceful shutdown.
func (s *Server) MetricsSnapshot() map[string]float64 {
	reg := telemetry.NewRegistry()
	reg.Counter("dash.manifest_requests").Add(s.manifestReqs.Load())
	reg.Gauge("dash.inflight_requests").Set(float64(s.inflight.Load()))
	for i, id := range s.ids {
		reg.Counter("dash.segment_requests." + id).Add(s.served[i].requests.Load())
		reg.Counter("dash.segment_bytes." + id).Add(s.served[i].bytes.Load())
	}
	if s.cache != nil {
		s.cache.Stats().Record(reg)
	}
	if s.chaos != nil {
		s.chaos.Stats().Record(reg)
	}
	if s.governor != nil {
		s.governor.Stats().Record(reg)
	}
	return reg.ValueMap()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	out := s.MetricsSnapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// encoding/json emits map keys sorted, so the body is deterministic.
	if err := enc.Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	s.manifestReqs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.manifest.DTO()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseRepID splits "1080p60" into resolution and fps.
func parseRepID(id string) (Resolution, int, error) {
	i := strings.Index(id, "p")
	if i < 0 {
		return 0, 0, fmt.Errorf("dash: bad representation id %q", id)
	}
	res, err := ParseResolution(id[:i+1])
	if err != nil {
		return 0, 0, err
	}
	fps, err := strconv.Atoi(id[i+1:])
	if err != nil || fps <= 0 {
		return 0, 0, fmt.Errorf("dash: bad fps in representation id %q", id)
	}
	return res, fps, nil
}

func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	rep, segText, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/video/"), "/")
	if !ok || strings.Contains(segText, "/") {
		http.Error(w, "want /video/<rep>/<segment>", http.StatusBadRequest)
		return
	}
	res, fps, err := parseRepID(rep)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	idx, ok := s.ladderIdx[rungKey{res, fps}]
	if !ok {
		http.Error(w, "no such representation", http.StatusNotFound)
		return
	}
	seg, err := strconv.Atoi(segText)
	if err != nil || seg < 0 || seg >= len(s.segs[idx]) {
		http.Error(w, "no such segment", http.StatusNotFound)
		return
	}
	// Admission happens after request validation (malformed requests
	// must not consume capacity) and before the chaos gate and any
	// serving work: a shed request costs the server one decision and
	// one tiny response.
	demote := 0
	if s.governor != nil {
		// TenantHeader is canonical, so indexing the map finds what
		// Header.Get would, without canonicalising the key again.
		var tenant string
		if v := r.Header[TenantHeader]; len(v) > 0 {
			tenant = v[0]
		}
		if tenant == "" {
			tenant = "anon"
		}
		d := s.governor.Admit(tenant)
		switch d.Kind {
		case cdn.Shed:
			w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(d.RetryAfter), 10))
			http.Error(w, "overloaded", d.Status)
			return
		case cdn.Queued:
			select {
			case g := <-d.Ticket.C:
				demote = g.Demote
			case <-r.Context().Done():
				if !s.governor.Cancel(d.Ticket) {
					// The grant raced the disconnect: consume it and give
					// the slot back, or it leaks forever.
					<-d.Ticket.C
					s.governor.Release()
				}
				return
			}
			defer s.governor.Release()
		default: // Admitted
			demote = d.Demote
			defer s.governor.Release()
		}
	}
	var originDelay time.Duration
	if s.chaos != nil {
		effect := s.chaos.Gate()
		if effect.Status != 0 {
			http.Error(w, "injected fault", effect.Status)
			return
		}
		originDelay = effect.OriginDelay
	}
	// Brownout: serve a lower ladder rung than requested, clamped at
	// the floor — degrade quality, not availability. The response
	// advertises the served rung so clients account honestly.
	if demote > 0 {
		if served := max(idx-demote, 0); served != idx {
			idx = served
			w.Header().Set(ServedRungHeader, s.ids[idx])
		}
	}
	e := &s.segs[idx][seg]
	size := e.size
	// Metrics count the rung actually served: under brownout the
	// /metrics rung mix shifts visibly toward the ladder's floor.
	rc := &s.served[idx]
	rc.requests.Add(1)
	rc.bytes.Add(int64(size))
	// Both keys are canonical, and both values are shared read-only
	// slices: nothing is canonicalised or allocated per response.
	h := w.Header()
	h["Content-Type"] = contentType
	h["Content-Length"] = e.length
	var body []byte
	if s.cache != nil {
		// The key is canonical: "/07" and "/+7" parse to segment 7 and
		// must share its entry, not store it again.
		body, _, _ = s.cache.Get(e.key, func() ([]byte, error) {
			if originDelay > 0 {
				// Coalesced waiters share the leader's stall, like they
				// share its generation: an origin slowdown is paid once.
				s.chaos.Delay(originDelay)
			}
			return synthBody(size), nil
		})
	} else {
		if originDelay > 0 {
			s.chaos.Delay(originDelay)
		}
		body = synthBody(size)
	}
	w.Write(body)
}

// Every synthetic segment body is a prefix of one byte sequence,
// body[i] = byte(i*31). synthFiller publishes the longest prefix made
// so far; synthGrow, under synthMu, replaces it with a longer one.
// A published buffer is never written again, so views handed out
// before a growth stay valid and need no lock to read.
var (
	synthMu     sync.Mutex
	synthFiller atomic.Pointer[[]byte]
)

// synthBody returns a size-byte synthetic segment: a read-only view of
// the shared filler, capped so an append cannot write into it. The
// cache stores and coalesces these views; nothing copies the bytes.
func synthBody(size units.Bytes) []byte {
	n := int(size)
	if p := synthFiller.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	return synthGrow(n)[:n:n]
}

// synthGrow publishes a filler of at least n bytes and returns it. It
// at least doubles the old length, so a rising run of sizes makes a
// logarithmic number of buffers, all of them together under four times
// the largest body served.
func synthGrow(n int) []byte {
	synthMu.Lock()
	defer synthMu.Unlock()
	if p := synthFiller.Load(); p != nil {
		if len(*p) >= n {
			return *p
		}
		n = max(n, 2*len(*p))
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	synthFiller.Store(&buf)
	return buf
}

// Client fetches manifests and segments from a dash Server over HTTP.
// Its clock is injected (wall-clock wiring lives in cmd/ and
// examples/) so that internal/ stays free of time.Now and segment
// timing stays fakeable in tests.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Now timestamps segment transfers for FetchSegment's duration
	// measurement; typically time.Now, supplied by the caller.
	Now func() time.Time

	retry RetryPolicy
	sleep func(time.Duration)
	res   Resilience

	hedges atomic.Int64
	waited atomic.Int64
}

// RetryPolicy bounds a fetch: Attempts caps how many attempts a fetch
// gets, and Backoff doubles between attempts up to BackoffCap — the
// same capped-exponential shape the simulated player's segment retries
// use, applied to the real HTTP path. The client's http.Client timeout
// bounds each attempt.
type RetryPolicy struct {
	// Attempts is the total tries per fetch (default 3).
	Attempts int
	// Backoff is the delay before the first retry (default 500ms); it
	// doubles per retry, capped at BackoffCap (default 8s).
	Backoff    time.Duration
	BackoffCap time.Duration
}

func (p *RetryPolicy) applyDefaults() {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 500 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 8 * time.Second
	}
}

// NewClient builds a client for the given base URL. The now func
// (typically time.Now, supplied by the binary's main package) times
// segment fetches; it must be non-nil.
func NewClient(baseURL string, now func() time.Time) *Client {
	if now == nil {
		panic("dash: NewClient needs a clock; pass time.Now from the binary's main package")
	}
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: &http.Client{Timeout: 30 * time.Second}, Now: now}
}

// SetRetry arms retries for manifest and segment fetches. The sleep
// func paces the backoff and is injected like Now (typically
// time.Sleep from the binary's main package; tests pass a recorder) —
// internal/ never touches the wall clock directly (see LINTING.md).
// A nil sleep with Attempts > 1 panics.
func (c *Client) SetRetry(p RetryPolicy, sleep func(time.Duration)) {
	p.applyDefaults()
	if sleep == nil && p.Attempts > 1 {
		panic("dash: Client.SetRetry needs a sleep func; pass time.Sleep from the binary's main package")
	}
	c.retry = p
	c.sleep = sleep
}

// retryable reports whether a failed attempt is worth retrying:
// transport errors (status 0), server-side (5xx) statuses, and 429
// throttles are; other client errors (4xx) are not — re-sending a
// request the server rejected outright only burns the backoff budget.
func retryable(status int) bool {
	return status < 400 || status >= 500 || status == http.StatusTooManyRequests
}

// FetchManifest downloads and decodes the manifest, retrying per the
// client's RetryPolicy (a single attempt unless SetRetry armed one).
func (c *Client) FetchManifest() (ManifestDTO, error) {
	var dto ManifestDTO
	err := c.withRetry(func() error {
		resp, err := c.get(c.BaseURL + "/manifest.json")
		if err != nil {
			return fmt.Errorf("dash: fetch manifest: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return statusError(resp, "dash: fetch manifest: "+resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
			// A truncated or corrupt body is a transport-level failure:
			// retryable.
			return fmt.Errorf("dash: decode manifest: %w", err)
		}
		return nil
	})
	return dto, err
}

// FetchSegment downloads one segment, discarding the body, and returns
// its size and transfer duration. With a RetryPolicy armed (SetRetry),
// failed attempts are retried with capped exponential backoff paced by
// any server Retry-After hint and jittered on the player's seed lane;
// the returned duration spans all attempts including backoff — the
// stall the player actually experienced. With Resilience.Hedge armed,
// each attempt races a delayed duplicate and takes the first finisher.
func (c *Client) FetchSegment(repID string, seg int) (units.Bytes, time.Duration, error) {
	start := c.Now()
	var total int64
	fetchOnce := func() hedgeResult {
		resp, err := c.get(fmt.Sprintf("%s/video/%s/%d", c.BaseURL, repID, seg))
		if err != nil {
			return hedgeResult{err: fmt.Errorf("dash: fetch segment: %w", err)}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return hedgeResult{err: statusError(resp, fmt.Sprintf("dash: fetch segment %s/%d: %s", repID, seg, resp.Status))}
		}
		// io.Discard's ReaderFrom drains through a pooled buffer — no
		// per-fetch 64 KiB allocation (the seed client allocated one
		// drain buffer per segment).
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			// A connection that died mid-body is a transport failure:
			// retryable.
			return hedgeResult{err: fmt.Errorf("dash: read segment %s/%d: %w", repID, seg, err)}
		}
		return hedgeResult{n: n, rung: resp.Header.Get(ServedRungHeader)}
	}
	err := c.withRetry(func() error {
		var r hedgeResult
		if c.res.Hedge > 0 {
			r = c.hedged(fetchOnce)
		} else {
			r = fetchOnce()
		}
		if r.err != nil {
			return r.err
		}
		total = r.n
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return units.Bytes(total), c.Now().Sub(start), nil
}
