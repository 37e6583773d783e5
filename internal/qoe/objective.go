package qoe

import (
	"math"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/player"
	"coalqoe/internal/units"
)

// Objective is the composable session QoE model the arena ranks ABR
// algorithms by. It follows the classic per-chunk contract (perceptual
// quality of the chunk, minus a rebuffer penalty, minus a smoothness
// penalty on the quality delta to the previous chunk), extended with a
// startup-delay penalty, a crash penalty, and an energy term driven by
// decode resolution and radio-active time — so adaptation can trade
// quality against battery as well as memory.
//
// Guaranteed shape (the property battery pins these):
//
//   - Total is monotone non-increasing in rebuffer time and in startup
//     delay (penalty weights are clamped non-negative).
//   - Total is monotone non-decreasing in a chunk's delivered fraction,
//     and — when SmoothnessPenalty ≤ 1/2 and EnergyPenalty == 0 — in
//     the chunk's perceptual quality.
//   - With SmoothnessPenalty == 0 and an index-flat quality table, Total
//     is invariant under reordering of the chunk trace.
//   - Total is bounded by the analytic best case (every expected chunk
//     played at top table quality, no penalties) and worst case
//     (nothing played, maximal penalties).
type Objective struct {
	// Quality maps (chunk index, rung) to perceptual quality. A nil
	// table scores every chunk 0 (penalties still apply).
	Quality *QualityTable

	// StartupPenalty is QoE lost per second of startup delay.
	StartupPenalty float64
	// RebufferPenalty is QoE lost per second of mid-stream stall.
	RebufferPenalty float64
	// SmoothnessPenalty scales |pq(prev) − pq(cur)| at every switch.
	SmoothnessPenalty float64
	// DeliveredExponent shapes how the delivered-frame fraction scales
	// a chunk's quality: quality × delivered^exp. 1 is linear; the
	// default objective uses 2 so heavy frame loss hurts superlinearly
	// — the §4.3 survey's steep annoyance slope means a 60%-drop
	// session is unwatchable, not 40% as good. Values ≤ 0 (and NaN)
	// fall back to 1.
	DeliveredExponent float64
	// CrashPenalty is charged once if the session crashed terminally.
	CrashPenalty float64
	// EnergyPenalty is QoE lost per joule spent decoding + radio, as
	// chunkJoules prices a chunk.
	EnergyPenalty float64
}

// DefaultObjective returns the arena's reference weighting for the
// given content: rebuffering dominates (the paper's §4.3 raters
// tolerate resolution loss far better than stalls), startup and
// smoothness matter, energy is a tiebreaker.
func DefaultObjective(ladder []dash.Rung, video dash.Video) *Objective {
	return reference(NewQualityTable(ladder, video.Segments(), video.Genre))
}

// FlatObjective is the reference weighting over a flat (index-free)
// quality table: the objective ABR controllers decide by, since they
// do not know which chunk of the content comes next.
func FlatObjective(ladder []dash.Rung) *Objective {
	return reference(NewQualityTable(ladder, 0, dash.Travel))
}

// reference returns the reference weights over the given quality table.
func reference(q *QualityTable) *Objective {
	return &Objective{
		Quality:           q,
		StartupPenalty:    5,
		RebufferPenalty:   25,
		SmoothnessPenalty: 0.5,
		DeliveredExponent: 2,
		CrashPenalty:      100,
		EnergyPenalty:     0.25,
	}
}

// Chunk is one fully played segment, as seen by the objective.
type Chunk struct {
	// Index is the segment position in the video (gaps mark segments
	// lost to a crash-recovery resync).
	Index int
	// Rung is the ladder rung the chunk was fetched and decoded at.
	Rung dash.Rung
	// Duration is the chunk's play time; Rebuffer is the stall time
	// accrued while it was on screen.
	Duration, Rebuffer time.Duration
	// Delivered is the fraction of the chunk's frames actually
	// presented (1 − drop rate); it scales perceptual quality so a
	// chunk decoded under memory pressure is worth less than its rung.
	Delivered float64
}

// Trace is a whole session from the objective's point of view.
type Trace struct {
	// Startup is the launch-to-first-frame delay.
	Startup time.Duration
	// Chunks are the fully played segments in play order.
	Chunks []Chunk
	// TotalChunks is the expected segment count for the content; the
	// shortfall versus len(Chunks) — segments never played because the
	// session stalled out or crashed — scores zero quality.
	TotalChunks int
	// Crashed reports a terminal lmkd kill.
	Crashed bool
}

// TraceFrom adapts a player session summary to an objective trace.
func TraceFrom(m player.Metrics, video dash.Video) Trace {
	t := Trace{
		Startup:     m.StartupDelay,
		TotalChunks: video.Segments(),
		Crashed:     m.Crashed,
		Chunks:      make([]Chunk, 0, len(m.Chunks)),
	}
	for _, c := range m.Chunks {
		delivered := 1.0
		if total := c.Rendered + c.Dropped; total > 0 {
			delivered = float64(c.Rendered) / float64(total)
		}
		t.Chunks = append(t.Chunks, Chunk{
			Index:     c.Index,
			Rung:      c.Rung,
			Duration:  c.Duration,
			Rebuffer:  c.Rebuffer,
			Delivered: delivered,
		})
	}
	return t
}

// Breakdown itemizes a score: Total = Quality − Startup − Rebuffer −
// Smoothness − Energy − Crash, every component normalized per expected
// chunk so sessions over different content lengths compare.
type Breakdown struct {
	Quality    float64
	Startup    float64
	Rebuffer   float64
	Smoothness float64
	Energy     float64
	Crash      float64
	Total      float64
}

// Compute scores a single chunk against its predecessor (nil for the
// first chunk of a session). The returned Breakdown carries no startup
// or crash component — those are session-level and applied by Score.
func (o *Objective) Compute(c Chunk, prev *Chunk) Breakdown {
	var b Breakdown
	expo := o.DeliveredExponent
	if !(expo > 0) { // also catches NaN
		expo = 1
	}
	b.Quality = o.pq(c.Index, c.Rung) * math.Pow(clamp01(c.Delivered), expo)
	b.Rebuffer = nonneg(o.RebufferPenalty) * clampSec(c.Rebuffer)
	if prev != nil {
		b.Smoothness = nonneg(o.SmoothnessPenalty) *
			math.Abs(o.pq(prev.Index, prev.Rung)-o.pq(c.Index, c.Rung))
	}
	b.Energy = nonneg(o.EnergyPenalty) * chunkJoules(c.Rung, c.Duration)
	b.Total = b.Quality - b.Rebuffer - b.Smoothness - b.Energy
	return b
}

// Score folds a session trace into its QoE breakdown.
func (o *Objective) Score(t Trace) Breakdown {
	var b Breakdown
	var prev *Chunk
	for i := range t.Chunks {
		cb := o.Compute(t.Chunks[i], prev)
		b.Quality += cb.Quality
		b.Rebuffer += cb.Rebuffer
		b.Smoothness += cb.Smoothness
		b.Energy += cb.Energy
		prev = &t.Chunks[i]
	}
	b.Startup = nonneg(o.StartupPenalty) * clampSec(t.Startup)
	if t.Crashed {
		b.Crash = nonneg(o.CrashPenalty)
	}
	// Normalize per expected chunk: segments never played contribute
	// zero quality but still count in the denominator, so a session
	// that crashes halfway scores roughly half the quality of one that
	// finishes — on top of the crash penalty itself.
	n := t.TotalChunks
	if n < len(t.Chunks) {
		n = len(t.Chunks)
	}
	if n < 1 {
		n = 1
	}
	inv := 1 / float64(n)
	b.Quality *= inv
	b.Startup *= inv
	b.Rebuffer *= inv
	b.Smoothness *= inv
	b.Energy *= inv
	b.Crash *= inv
	b.Total = b.Quality - b.Startup - b.Rebuffer - b.Smoothness - b.Energy - b.Crash
	return b
}

// Best returns the analytic upper bound of Score over traces with the
// given expected chunk count: every chunk played at the table's top
// quality with full delivery and zero penalties of any kind.
func (o *Objective) Best() float64 {
	if o.Quality == nil {
		return 0
	}
	return o.Quality.Max()
}

// Worst returns the analytic lower bound of Score for traces whose
// per-chunk rebuffer and startup delay do not exceed the given caps:
// nothing played, maximal startup, every expected chunk's worth of
// rebuffer, a crash. (Unbounded rebuffer has no finite floor.)
func (o *Objective) Worst(startupCap, rebufferCap time.Duration) float64 {
	return -nonneg(o.StartupPenalty)*clampSec(startupCap) -
		nonneg(o.RebufferPenalty)*clampSec(rebufferCap) -
		nonneg(o.CrashPenalty)
}

// pq looks up perceptual quality, treating a nil table as zero.
func (o *Objective) pq(index int, r dash.Rung) float64 {
	if o.Quality == nil {
		return 0
	}
	return o.Quality.At(index, r)
}

// QualityTable maps (chunk index, rung) to a perceptual quality value
// in [0, 100]. The base curve is logarithmic in bitrate — the standard
// diminishing-returns shape — and a deterministic per-chunk modulation
// shared across rungs models content complexity varying over the
// video. Sharing the modulation across rungs preserves cross-rung
// monotonicity at every chunk: a higher-bitrate rung is never worth
// less than a lower one at the same position.
type QualityTable struct {
	base map[dash.Rung]float64
	// mod is the per-chunk multiplier; empty means flat (index-free).
	mod []float64
	// b0 and bmax anchor the log curve for off-table rungs.
	b0, bmax float64
	max      float64
}

// NewQualityTable builds the table for a ladder and content length.
// chunks ≤ 0 yields a flat table (no per-chunk modulation) — the form
// the reorder-invariance property is stated over.
func NewQualityTable(ladder []dash.Rung, chunks int, genre dash.Genre) *QualityTable {
	t := &QualityTable{base: make(map[dash.Rung]float64, len(ladder))}
	for _, r := range ladder {
		b := float64(r.Bitrate)
		if b <= 0 {
			continue
		}
		if t.b0 == 0 || b < t.b0 {
			t.b0 = b
		}
		if b > t.bmax {
			t.bmax = b
		}
	}
	if t.b0 == 0 {
		t.b0, t.bmax = 1, 1
	}
	for _, r := range ladder {
		q := t.curve(float64(r.Bitrate))
		t.base[r] = q
		if q > t.max {
			t.max = q
		}
	}
	// Deterministic modulation in [1−a/2, 1+a/2), a scaled by genre
	// complexity, from the same xorshift-style mix dash uses for VBR
	// segment sizes.
	amp := 0.15 * genre.Complexity()
	for i := 0; i < chunks; i++ {
		h := uint64(i+1) * 0x9e3779b97f4a7c15
		h ^= uint64(genre+1) * 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		u := float64(h%10000)/10000 - 0.5
		t.mod = append(t.mod, 1+amp*u)
	}
	return t
}

// curve is the base log quality: 0 below the ladder floor, 100 at the
// ladder ceiling, concave in between.
func (t *QualityTable) curve(bits float64) float64 {
	if bits <= 0 || math.IsNaN(bits) {
		return 0
	}
	denom := math.Log(1 + t.bmax/t.b0)
	if denom <= 0 {
		return 100
	}
	q := 100 * math.Log(1+bits/t.b0) / denom
	if q < 0 {
		return 0
	}
	if q > 100 {
		return 100
	}
	return q
}

// At returns the perceptual quality of rung r at chunk index i.
func (t *QualityTable) At(i int, r dash.Rung) float64 {
	q, ok := t.base[r]
	if !ok {
		q = t.curve(float64(r.Bitrate))
	}
	if len(t.mod) > 0 {
		if i < 0 {
			i = -i
		}
		q *= t.mod[i%len(t.mod)]
	}
	return q
}

// Max returns the largest base quality in the table times the largest
// modulation — the analytic per-chunk ceiling.
func (t *QualityTable) Max() float64 {
	m := 1.0
	for _, f := range t.mod {
		if f > m {
			m = f
		}
	}
	return t.max * m
}

// The energy model prices a chunk's decode and radio energy. Decode
// power scales with pixel throughput (resolution × frame rate), after
// the decoding-resolution energy studies in PAPERS.md; radio power is
// charged for the time the radio stays active to fetch the chunk's
// bytes at radioRate. The values approximate a mid-range handset.
const (
	// decodeBaseW is the floor decode/display draw in watts.
	decodeBaseW = 0.6
	// decodePerMPix60W is the extra draw per megapixel of frame area
	// at 60 FPS (scaled linearly with actual FPS).
	decodePerMPix60W = 0.9
	// radioW is the radio-active draw; radioRate is the link rate the
	// radio sustains while fetching (higher rate → shorter active time
	// for the same bytes).
	radioW    = 1.1
	radioRate = 25 * units.Mbps
)

// chunkJoules returns the energy cost of playing one chunk at rung r.
func chunkJoules(r dash.Rung, d time.Duration) float64 {
	secs := clampSec(d)
	mpix := float64(r.Resolution.Pixels()) / 1e6
	fps := float64(r.FPS)
	if fps < 0 {
		fps = 0
	}
	decode := (decodeBaseW + decodePerMPix60W*mpix*fps/60) * secs
	radio := 0.0
	if r.Bitrate > 0 {
		radio = radioW * float64(r.Bitrate) * secs / float64(radioRate)
	}
	return decode + radio
}

// clampSec converts a duration to non-negative seconds.
func clampSec(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return d.Seconds()
}

// clamp01 pins x into [0, 1], mapping NaN to 0.
func clamp01(x float64) float64 {
	if !(x >= 0) { // also catches NaN
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// nonneg sanitizes a weight: negative, NaN or Inf become 0.
func nonneg(w float64) float64 {
	if !(w >= 0) || math.IsInf(w, 1) {
		return 0
	}
	return w
}
