package dash

import (
	"strconv"
	"testing"
	"time"
)

// TestRetryAfterRoundTrip pins the hint a client ends up honouring for
// a server-side backoff hint: the header the server writes, what
// parseRetryAfter reads back from it, and RetryAfterHint (the round
// trip the loadgen simulator uses in place of a header) must agree.
func TestRetryAfterRoundTrip(t *testing.T) {
	cases := []struct {
		hint   time.Duration
		header string
		want   time.Duration
	}{
		{0, "1", time.Second}, // never "0": that invites an immediate retry
		{time.Nanosecond, "1", time.Second},
		{999 * time.Millisecond, "1", time.Second},
		{time.Second, "1", time.Second},
		{1001 * time.Millisecond, "2", 2 * time.Second}, // rounded up
		{10 * time.Second, "10", 10 * time.Second},
		{11 * time.Second, "11", maxRetryAfter}, // the client caps what it honours
	}
	for _, c := range cases {
		header := strconv.FormatInt(retryAfterSeconds(c.hint), 10)
		if header != c.header {
			t.Errorf("hint %v: server header %q, want %q", c.hint, header, c.header)
		}
		if got := parseRetryAfter(header); got != c.want {
			t.Errorf("hint %v: client honours %v, want %v", c.hint, got, c.want)
		}
		if got := RetryAfterHint(c.hint); got != c.want {
			t.Errorf("RetryAfterHint(%v) = %v, want %v", c.hint, got, c.want)
		}
	}
}
