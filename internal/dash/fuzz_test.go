package dash

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
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
// front, over an arbitrary path, X-Tenant and Range header (the server
// ignores Range). Each input is sent three times to a fresh server, so
// repeats hit the cache and the "flood" tenant's quota throttles. It
// checks that the handler never panics, that every status is one the
// server or ServeMux path cleaning can produce, that every 200 body
// matches its Content-Length, and that /metrics then closes: the
// per-rung request and byte counters sum to the 200 segment responses
// and the bytes they carried.
func FuzzServer(f *testing.F) {
	seeds := []struct{ path, tenant, rng string }{
		{"/video/480p30/0", "gold", "bytes=0-99"},
		{"/video/720p60/3", "flood", ""},
		{"/video/240p24/1", "", "bytes=-5"},
		{"/manifest.json", "", ""},
		{"/metrics", "anon", ""},
		{"/video/480p30/99999", "", ""},
		{"/video/480p30/-1", "guest", ""},
		{"/video/999p30/0", "", ""},
		{"/video/480p30", "", ""},
		{"/video/1080p48/2/extra", "", ""},
		{"/video/../metrics", "", ""},
		{"//video/360p30/1", "x", "bytes=1-"},
		{"video/360p30/1", "", ""},
		{"/video/２４０p３０/0", "\xff", ""},
		{"", "", ""},
	}
	for _, s := range seeds {
		f.Add(s.path, s.tenant, s.rng)
	}
	f.Fuzz(func(t *testing.T, path, tenant, rng string) {
		epoch := time.Unix(1700000000, 0)
		m := NewManifest(TestVideos[0], StandardFPS...)
		srv := NewServerOpts(m, ServerOptions{
			Cache: cdn.New(cdn.Config{Capacity: 8 << 20, AdmitAfter: 1, Coalesce: true}),
			Governor: cdn.NewGovernor(cdn.GovernorConfig{
				MaxInflight: 1,
				Quotas:      []cdn.TenantQuota{{Name: "flood", Rate: 0.001, Burst: 1}},
			}, func() time.Time { return epoch }),
		})
		get := func(path string) *httptest.ResponseRecorder {
			req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path}, Host: "example.com", Header: http.Header{}}
			if tenant != "" {
				req.Header.Set(TenantHeader, tenant)
			}
			if rng != "" {
				req.Header.Set("Range", rng)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			return rec
		}

		var segments, bytes int64
		for i := 0; i < 3; i++ {
			rec := get(path)
			switch code := rec.Code; {
			case code == http.StatusOK:
			case code >= 300 && code < 400:
				continue
			case code == http.StatusBadRequest, code == http.StatusNotFound,
				code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
				continue
			default:
				t.Fatalf("GET %q (tenant %q) = %d", path, tenant, code)
			}
			if cl := rec.Header().Get("Content-Length"); cl != "" {
				if n, err := strconv.Atoi(cl); err != nil || n != rec.Body.Len() {
					t.Fatalf("GET %q: Content-Length %q, body %d bytes", path, cl, rec.Body.Len())
				}
			}
			if rec.Header().Get("Content-Type") == "video/mp4" {
				segments++
				bytes += int64(rec.Body.Len())
			}
		}

		rec := get("/metrics")
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
		if gotReqs != float64(segments) || gotBytes != float64(bytes) {
			t.Fatalf("GET %q: /metrics counts %v requests / %v bytes, served %d / %d",
				path, gotReqs, gotBytes, segments, bytes)
		}
	})
}
