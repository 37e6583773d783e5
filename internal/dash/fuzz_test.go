package dash

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"coalqoe/internal/cdn"
)

// FuzzParseRepID holds parseRepID to two properties on arbitrary
// input: it never panics, and any id it accepts round-trips — the
// canonical rendering of the parsed (resolution, fps) re-parses to
// the same pair. (The raw string itself need not survive: "1080p060"
// parses to the same rung as "1080p60".)
func FuzzParseRepID(f *testing.F) {
	seeds := []string{
		"1080p60", "240p24", "1440p30", "720p",
		"", "p", "pp", "1080pp60", "720p30p2", "480p 30",
		"720p9223372036854775808", "720p-1", "1080p0",
		"999p30", "p60", "1080", "２４０p３０",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, id string) {
		res, fps, err := parseRepID(id)
		if err != nil {
			return
		}
		if fps <= 0 {
			t.Fatalf("parseRepID(%q) accepted fps %d", id, fps)
		}
		if w, h := res.Dimensions(); w == 0 || h == 0 {
			t.Fatalf("parseRepID(%q) accepted unknown resolution %v", id, res)
		}
		canon := fmt.Sprintf("%s%d", res, fps)
		res2, fps2, err := parseRepID(canon)
		if err != nil || res2 != res || fps2 != fps {
			t.Fatalf("round-trip %q -> %q -> (%v,%d,%v), want (%v,%d)",
				id, canon, res2, fps2, err, res, fps)
		}
	})
}

// FuzzServer drives the whole handler, with a cache and a Governor in
// front, over an arbitrary method, request URI, X-Tenant and Range
// header (the server ignores Range). The URI is parsed the way a
// server parses a request line, so percent-escapes such as %2F reach
// the handler as they would off the wire; a URI that does not parse
// is taken as a raw path. Each input is sent three times to a fresh
// server, so repeats hit the cache and the "flood" tenant's quota
// throttles. It checks that the handler never panics, that every
// status is one the server or ServeMux can produce, that every 200
// body matches its Content-Length, and that /metrics then closes: the
// per-rung request and byte counters sum to the segment responses and
// the bytes they carried.
//
// Every request also goes to a twin server through its ServeMux alone,
// the reference for ServeHTTP's segment fast path: status, headers,
// body and the closing /metrics must match it byte for byte.
func FuzzServer(f *testing.F) {
	seeds := []struct{ method, path, tenant, rng string }{
		{"GET", "/video/480p30/0", "gold", "bytes=0-99"},
		{"GET", "/video/720p60/3", "flood", ""},
		{"GET", "/video/240p24/1", "", "bytes=-5"},
		{"GET", "/manifest.json", "", ""},
		{"GET", "/metrics", "anon", ""},
		{"GET", "/video/480p30/99999", "", ""},
		{"GET", "/video/480p30/-1", "guest", ""},
		{"GET", "/video/999p30/0", "", ""},
		{"GET", "/video/480p30", "", ""},
		{"GET", "/video/1080p48/2/extra", "", ""},
		{"GET", "/video/../metrics", "", ""},
		{"GET", "//video/360p30/1", "x", "bytes=1-"},
		{"GET", "video/360p30/1", "", ""},
		{"GET", "/video/２４０p３０/0", "\xff", ""},
		{"GET", "", "", ""},
		{"HEAD", "/video/240p30/1", "", ""},
		{"POST", "/video/240p30/1", "gold", ""},
		{"GET", "/video/./240p30/1", "", ""},
		{"GET", "/video//240p30/1", "", ""},
		{"GET", "/video/240p30/1/", "", ""},
		{"GET", "/video/240p30%2F1", "", ""},
		{"GET", "/video/240p30/1%2F", "", ""},
	}
	for _, s := range seeds {
		f.Add(s.method, s.path, s.tenant, s.rng)
	}
	f.Fuzz(func(t *testing.T, method, uri, tenant, rng string) {
		epoch := time.Unix(1700000000, 0)
		m := NewManifest(TestVideos[0], StandardFPS...)
		newServer := func() *Server {
			return NewServerOpts(m, ServerOptions{
				Cache: cdn.New(cdn.Config{Capacity: 8 << 20, AdmitAfter: 1, Coalesce: true}),
				Governor: cdn.NewGovernor(cdn.GovernorConfig{
					MaxInflight: 1,
					Quotas:      []cdn.TenantQuota{{Name: "flood", Rate: 0.001, Burst: 1}},
				}, func() time.Time { return epoch }),
			})
		}
		srv, twin := newServer(), newServer()
		// ref is the reference handler: the twin's ServeHTTP with every
		// request routed by its mux, and counted in flight the same way.
		ref := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			twin.inflight.Add(1)
			defer twin.inflight.Add(-1)
			twin.mux.ServeHTTP(w, r)
		})
		u, err := url.ParseRequestURI(uri)
		if err != nil {
			u = &url.URL{Path: uri}
		}
		send := func(h http.Handler, method string, u *url.URL) *httptest.ResponseRecorder {
			req := &http.Request{Method: method, URL: u, Host: "example.com", Header: http.Header{}}
			if tenant != "" {
				req.Header.Set(TenantHeader, tenant)
			}
			if rng != "" {
				req.Header.Set("Range", rng)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		same := func(what string, got, want *httptest.ResponseRecorder) {
			t.Helper()
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) ||
				!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s: ServeHTTP = %d %v (%d-byte body), ServeMux = %d %v (%d-byte body)",
					what, got.Code, got.Header(), got.Body.Len(), want.Code, want.Header(), want.Body.Len())
			}
		}

		var segments, served int64
		for i := 0; i < 3; i++ {
			rec := send(srv, method, u)
			same(fmt.Sprintf("%s %q", method, uri), rec, send(ref, method, u))
			switch code := rec.Code; {
			case code == http.StatusOK:
			case code >= 300 && code < 400:
				continue
			case code == http.StatusBadRequest, code == http.StatusNotFound,
				code == http.StatusMethodNotAllowed,
				code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
				continue
			default:
				t.Fatalf("%s %q (tenant %q) = %d", method, uri, tenant, code)
			}
			if cl := rec.Header().Get("Content-Length"); cl != "" {
				if n, err := strconv.Atoi(cl); err != nil || n != rec.Body.Len() {
					t.Fatalf("%s %q: Content-Length %q, body %d bytes", method, uri, cl, rec.Body.Len())
				}
			}
			if rec.Header().Get("Content-Type") == "video/mp4" {
				segments++
				served += int64(rec.Body.Len())
			}
		}

		metricsURL := &url.URL{Path: "/metrics"}
		rec := send(srv, http.MethodGet, metricsURL)
		same("/metrics", rec, send(ref, http.MethodGet, metricsURL))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics = %d", rec.Code)
		}
		var metrics map[string]float64
		if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
			t.Fatalf("decode /metrics: %v", err)
		}
		var gotReqs, gotBytes float64
		for _, r := range m.Rungs {
			id := fmt.Sprintf("%s%d", r.Resolution, r.FPS)
			gotReqs += metrics["dash.segment_requests."+id]
			gotBytes += metrics["dash.segment_bytes."+id]
		}
		if gotReqs != float64(segments) || gotBytes != float64(served) {
			t.Fatalf("%s %q: /metrics counts %v requests / %v bytes, served %d / %d",
				method, uri, gotReqs, gotBytes, segments, served)
		}
	})
}
