// Package netem models the network path between the video client and
// the server. The paper's controlled experiments run over a dedicated
// WiFi LAN provisioned so "the network never became a bottleneck"
// (§4.1); the LAN profile reproduces that, while constrained profiles
// let the ABR experiments exercise network adaptation too.
//
// Two mechanisms are provided: a virtual-time Link for the simulator,
// and a wall-clock Shaper for the real net/http examples.
package netem

import (
	"io"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/units"
)

// Link is a simulated bottleneck link: serial transmission at a fixed
// rate plus a propagation delay.
type Link struct {
	clock     *simclock.Clock
	rate      units.BitsPerSecond
	delay     time.Duration
	busyUntil time.Duration
	downUntil time.Duration
	loss      float64

	// TotalBytes counts transferred payload.
	TotalBytes units.Bytes
}

// LAN returns the paper's non-bottleneck profile: 300 Mbps, 2 ms.
func LAN(clock *simclock.Clock) *Link { return NewLink(clock, 300*units.Mbps, 2*time.Millisecond) }

// NewLink builds a link with the given rate and one-way delay.
func NewLink(clock *simclock.Clock, rate units.BitsPerSecond, delay time.Duration) *Link {
	if rate <= 0 {
		panic("netem: non-positive rate")
	}
	return &Link{clock: clock, rate: rate, delay: delay}
}

// Rate returns the link rate.
func (l *Link) Rate() units.BitsPerSecond { return l.rate }

// SetRate changes the link rate (e.g. mid-experiment bandwidth drop).
func (l *Link) SetRate(rate units.BitsPerSecond) {
	if rate <= 0 {
		panic("netem: non-positive rate")
	}
	l.rate = rate
}

// maxLoss caps the loss rate: beyond it the goodput model (rate scaled
// by 1-loss) degenerates, and real links that lossy are outages.
const maxLoss = 0.95

// lossRTO is the stall a retransmission round costs a transfer: one
// timeout-and-resend at typical WiFi RTO scale.
const lossRTO = 200 * time.Millisecond

// SetLoss sets the packet-loss rate in [0, maxLoss]. Loss scales the
// effective rate by 1-p (retransmitted bytes re-occupy the link) and
// adds a per-transfer retransmission stall drawn from the clock's RNG.
// Zero restores the lossless path.
func (l *Link) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > maxLoss {
		p = maxLoss
	}
	l.loss = p
}

// Loss returns the current loss rate.
func (l *Link) Loss() float64 { return l.loss }

// OutageFor takes the link down for d from now: transfers submitted
// while down queue behind the outage. Overlapping outages extend to the
// latest end. In-flight deliveries already scheduled are not recalled —
// the model applies to new submissions.
func (l *Link) OutageFor(d time.Duration) {
	if d <= 0 {
		return
	}
	if until := l.clock.Now() + d; until > l.downUntil {
		l.downUntil = until
	}
}

// Down reports whether the link is currently in an outage window.
func (l *Link) Down() bool { return l.clock.Now() < l.downUntil }

// Transfer schedules the delivery of b bytes and invokes onDone when
// the last byte arrives. Transfers share the link serially (FIFO);
// during an outage window transmission waits for the link to return.
func (l *Link) Transfer(b units.Bytes, onDone func()) {
	if b < 0 {
		b = 0
	}
	now := l.clock.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	if start < l.downUntil {
		start = l.downUntil
	}
	tx := time.Duration(float64(b) / l.rate.BytesPerSecond() * float64(time.Second))
	if l.loss > 0 {
		// Goodput shrinks by the retransmitted share, and the transfer
		// eats at least one retransmission stall. Only lossy links draw
		// from the RNG, so lossless runs keep their random streams.
		tx = time.Duration(float64(tx) / (1 - l.loss))
		tx += time.Duration(float64(lossRTO) * l.loss * (0.5 + l.clock.Rand().Float64()))
	}
	l.busyUntil = start + tx
	l.TotalBytes += b
	if onDone != nil {
		l.clock.At(l.busyUntil+l.delay, onDone)
	}
}

// TransferTime estimates the uncontended delivery time for b bytes.
func (l *Link) TransferTime(b units.Bytes) time.Duration {
	return time.Duration(float64(b)/l.rate.BytesPerSecond()*float64(time.Second)) + l.delay
}

// Shaper rate-limits an io.Reader against an injected clock, for the
// real net/http examples (the loopback is far faster than any WiFi
// LAN). The clock is injected rather than defaulted so that no code
// under internal/ depends on wall time: callers in cmd/ and examples/
// pass time.Now and time.Sleep, tests pass a virtual pair.
type Shaper struct {
	r       io.Reader
	rate    units.BitsPerSecond
	started time.Time
	read    int64
	sleep   func(time.Duration)
	now     func() time.Time
}

// NewShaper wraps r so reads average the given rate, timed by now and
// paced by sleep (typically time.Now and time.Sleep, supplied by the
// cmd/ or examples/ caller). Panics if either is nil.
func NewShaper(r io.Reader, rate units.BitsPerSecond, now func() time.Time, sleep func(time.Duration)) *Shaper {
	if now == nil || sleep == nil {
		panic("netem: NewShaper needs a clock; pass time.Now and time.Sleep from the binary's main package")
	}
	return &Shaper{r: r, rate: rate, sleep: sleep, now: now}
}

// Read implements io.Reader with pacing.
func (s *Shaper) Read(p []byte) (int, error) {
	if s.started.IsZero() {
		s.started = s.now()
	}
	n, err := s.r.Read(p)
	s.read += int64(n)
	// Sleep long enough that total bytes / elapsed == rate.
	due := time.Duration(float64(s.read) / s.rate.BytesPerSecond() * float64(time.Second))
	elapsed := s.now().Sub(s.started)
	if due > elapsed {
		s.sleep(due - elapsed)
	}
	return n, err
}
