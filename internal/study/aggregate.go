package study

import (
	"errors"
	"fmt"
	"sort"

	"coalqoe/internal/proc"
	"coalqoe/internal/stats"
	"coalqoe/internal/units"
)

// This file is the streaming half of the fleet study: FleetAggregate
// folds one DeviceLog at a time into mergeable summaries (integer
// counters, quantile sketches, a bounded top-k heap) and then drops
// the log, so a million-user panel costs the same memory as a
// 48-user one. The aggregate state is canonical — independent of fold
// and merge order — which is what makes serial, sharded and
// checkpoint-resumed runs serialize byte-identically (engine_test.go
// holds it to that under -race).

const (
	// numLevels covers proc.Normal..proc.Critical.
	numLevels = 4
	// numActivities covers the Figure 1 survey categories.
	numActivities = 3

	// MinHighShareFig6 is the fold-time pressure filter for the Figure 6
	// transition statistics (the paper analyzed the most-pressured
	// devices; quick-mode fleets fall back to the unfiltered set).
	MinHighShareFig6 = 0.02

	// exactRetain bounds the per-device summaries kept for the
	// small-panel report rows (Figures 3–4 print one line per device).
	// Beyond it the aggregate stops retaining rows — the fleet-scale
	// regime where only the streaming summaries remain.
	exactRetain = 128
	// topK bounds the Figure 5 most-pressured-devices heap.
	topK = 16
	// maxFailureRecords bounds the retained per-user failure reasons.
	maxFailureRecords = 8

	// Sketch geometry. Utilization lives in [0,1]; device-level medians
	// stay exact up to 4096 devices, then bin at 1/4096 resolution.
	// Dwell times live in [0, SimHours] seconds; per-level dwell
	// populations stay exact up to 16384 transitions, then bin at
	// ~0.66 s resolution. Both tolerances are documented in
	// EXPERIMENTS.md ("sketch tolerances").
	utilBins      = 4096
	utilExactCap  = 4096
	dwellBins     = 8192
	dwellExactCap = 16384
)

// dwellMaxSeconds is the sketch range upper bound: a dwell cannot
// exceed the simulated span.
const dwellMaxSeconds = SimHours * 3600

// DeviceSummary is the bounded per-device record the aggregate may
// retain: scalars only, never the 1 Hz samples.
type DeviceSummary struct {
	// Index is the recruit index; retention rules key on it so they are
	// deterministic under any fold/merge order.
	Index             int64              `json:"index"`
	ID                string             `json:"id"`
	RAMGiB            float64            `json:"ram_gib"`
	MedianUtilization float64            `json:"median_utilization"`
	SignalsPerHour    [numLevels]float64 `json:"signals_per_hour"`
	TimeShare         [numLevels]float64 `json:"time_share"`
	HighShare         float64            `json:"high_share"`
}

// fig5Candidate is a top-k entry: the summary plus the per-level
// available-memory samples Figure 5's boxplots need. Bounded by TopK.
type fig5Candidate struct {
	DeviceSummary
	AvailableByLevel [numLevels][]float64 `json:"available_by_level"`
}

// TransitionAgg accumulates Figure 6: integer transition counts and
// per-from-level dwell sketches.
type TransitionAgg struct {
	Counts [numLevels][numLevels]int64      `json:"counts"`
	Dwell  [numLevels]*stats.QuantileSketch `json:"dwell"`
}

func newTransitionAgg() TransitionAgg {
	var t TransitionAgg
	for i := range t.Dwell {
		t.Dwell[i] = stats.NewQuantileSketch(0, dwellMaxSeconds, dwellBins, dwellExactCap)
	}
	return t
}

func (t *TransitionAgg) fold(trs []Transition) {
	for _, tr := range trs {
		if tr.From < 0 || tr.From >= numLevels || tr.To < 0 || tr.To >= numLevels {
			continue
		}
		t.Counts[tr.From][tr.To]++
		t.Dwell[tr.From].Add(tr.Dwell.Seconds())
	}
}

func (t *TransitionAgg) merge(o *TransitionAgg) {
	for i := range t.Counts {
		for j := range t.Counts[i] {
			t.Counts[i][j] += o.Counts[i][j]
		}
		t.Dwell[i].Merge(o.Dwell[i])
	}
}

// IndexedFailure is one captured per-user panic with its recruit index
// (the deterministic retention key).
type IndexedFailure struct {
	Index  int64  `json:"index"`
	User   string `json:"user"`
	Reason string `json:"reason"`
}

// FleetAggregate is the streaming fleet summary. All fields are
// exported for checkpoint serialization; use the accessors for
// figures. Merging two aggregates (disjoint user sets, same
// parameters) yields exactly the aggregate of the union — the law the
// sharded engine is built on.
type FleetAggregate struct {
	// Recruited/Kept/Failed are the panel counts: Kept passed the
	// ≥ MinInteractiveHours filter (and includes failed users, like
	// Fleet.Kept); Failed users panicked during simulation.
	Recruited int64 `json:"recruited"`
	Kept      int64 `json:"kept"`
	Failed    int64 `json:"failed"`

	// RatingCounts[a][r] counts kept users answering rating r (1..5)
	// for activity a; index 0 collects unset/out-of-range answers
	// (the bug class Fig1Heatmap used to panic on).
	RatingCounts [numActivities][6]int64 `json:"rating_counts"`

	// Util sketches the per-device median RAM utilization (Figure 2).
	Util *stats.QuantileSketch `json:"util"`

	// Table 1 streaming counters (denominator: Kept - Failed).
	NAnySignal    int64 `json:"n_any_signal"`
	NManyCritical int64 `json:"n_many_critical"`
	NUtil60       int64 `json:"n_util60"`
	NHigh50       int64 `json:"n_high50"`
	NHigh2        int64 `json:"n_high2"` // 2%..50%, exclusive of NHigh50

	// Trans is Figure 6 over devices with HighShare ≥ MinHighShareFig6;
	// TransAll is the unfiltered fallback for small quick-mode fleets.
	Trans    TransitionAgg `json:"trans"`
	TransAll TransitionAgg `json:"trans_all"`

	// Top holds the ≤ TopK most-pressured devices (share descending,
	// user ID ascending) with their per-level availability samples.
	Top  []*fig5Candidate `json:"top"`
	TopK int              `json:"top_k"`

	// Summaries retains the ExactRetain lowest-index device summaries
	// for the per-device report rows; sorted by Index.
	Summaries   []*DeviceSummary `json:"summaries"`
	ExactRetain int              `json:"exact_retain"`

	// Failures retains the maxFailureRecords lowest-index failures.
	Failures []IndexedFailure `json:"failures"`
}

// NewFleetAggregate creates an empty aggregate.
func NewFleetAggregate() *FleetAggregate {
	return &FleetAggregate{
		Util:        stats.NewQuantileSketch(0, 1, utilBins, utilExactCap),
		Trans:       newTransitionAgg(),
		TransAll:    newTransitionAgg(),
		TopK:        topK,
		ExactRetain: exactRetain,
	}
}

// checkShape reports why the decoded aggregate a cannot fold users or
// merge with ref, an empty aggregate of the same parameters: different
// retention bounds, a missing or differently shaped sketch, or a nil
// retained record. nil means it can.
func (a *FleetAggregate) checkShape(ref *FleetAggregate) error {
	if a.TopK != ref.TopK || a.ExactRetain != ref.ExactRetain {
		return fmt.Errorf("aggregate retains top %d and %d summaries, want %d and %d",
			a.TopK, a.ExactRetain, ref.TopK, ref.ExactRetain)
	}
	sketches := [][2]*stats.QuantileSketch{{a.Util, ref.Util}}
	for i := range a.Trans.Dwell {
		sketches = append(sketches,
			[2]*stats.QuantileSketch{a.Trans.Dwell[i], ref.Trans.Dwell[i]},
			[2]*stats.QuantileSketch{a.TransAll.Dwell[i], ref.TransAll.Dwell[i]})
	}
	for _, s := range sketches {
		if s[0] == nil || !s[0].SameShape(s[1]) {
			return errors.New("aggregate sketch missing or of a different shape")
		}
	}
	for _, c := range a.Top {
		if c == nil {
			return errors.New("aggregate has a nil top-device record")
		}
	}
	for _, s := range a.Summaries {
		if s == nil {
			return errors.New("aggregate has a nil device summary")
		}
	}
	return nil
}

// NoteRecruit counts a participant who installed the app but did not
// pass the interactive-hours filter (kept users are counted by Fold).
func (a *FleetAggregate) NoteRecruit() { a.Recruited++ }

// foldRatings counts a kept user's survey answers.
func (a *FleetAggregate) foldRatings(u *User) {
	a.Kept++
	for _, act := range Activities {
		r := u.Ratings[act]
		if r < 1 || r > 5 {
			r = 0
		}
		a.RatingCounts[act][r]++
	}
}

// Fold streams one kept user's completed DeviceLog into the aggregate.
// The log is not retained — callers drop it after this returns.
func (a *FleetAggregate) Fold(u *User, log *DeviceLog, index int64) {
	a.Recruited++
	a.foldRatings(u)

	s := summarize(u, log, index)
	a.Util.Add(s.MedianUtilization)

	any := s.SignalsPerHour[proc.Moderate] + s.SignalsPerHour[proc.Low] + s.SignalsPerHour[proc.Critical]
	if any >= 1 {
		a.NAnySignal++
	}
	if s.SignalsPerHour[proc.Critical] > 10 {
		a.NManyCritical++
	}
	if s.MedianUtilization >= 0.60 {
		a.NUtil60++
	}
	if s.HighShare > 0.5 {
		a.NHigh50++
	} else if s.HighShare >= 0.02 {
		a.NHigh2++
	}

	a.TransAll.fold(log.Transitions)
	if s.HighShare >= MinHighShareFig6 {
		a.Trans.fold(log.Transitions)
	}

	a.insertTop(&fig5Candidate{DeviceSummary: *s, AvailableByLevel: availArrays(log)})
	a.insertSummary(s)
}

// FoldFailure records a kept user whose simulation panicked. Their
// survey answers still count (Figure 1 is survey data, not telemetry),
// matching the legacy Fleet, whose Kept list includes failed users.
func (a *FleetAggregate) FoldFailure(u *User, index int64, reason string) {
	a.Recruited++
	a.foldRatings(u)
	a.Failed++
	a.Failures = append(a.Failures, IndexedFailure{Index: index, User: u.ID, Reason: reason})
	sort.Slice(a.Failures, func(i, j int) bool { return a.Failures[i].Index < a.Failures[j].Index })
	if len(a.Failures) > maxFailureRecords {
		a.Failures = a.Failures[:maxFailureRecords]
	}
}

// summarize reduces a DeviceLog to its bounded scalar summary.
func summarize(u *User, log *DeviceLog, index int64) *DeviceSummary {
	s := &DeviceSummary{
		Index:             index,
		ID:                u.ID,
		RAMGiB:            float64(u.RAM) / float64(units.GiB),
		MedianUtilization: log.MedianUtilization,
	}
	//coalvet:allow maporder writes into a level-indexed array, order-insensitive
	for lvl, v := range log.SignalsPerHour {
		if lvl >= 0 && lvl < numLevels {
			s.SignalsPerHour[lvl] = v
		}
	}
	//coalvet:allow maporder writes into a level-indexed array, order-insensitive
	for lvl, v := range log.TimeShare {
		if lvl >= 0 && lvl < numLevels {
			s.TimeShare[lvl] = v
		}
	}
	s.HighShare = s.TimeShare[proc.Moderate] + s.TimeShare[proc.Low] + s.TimeShare[proc.Critical]
	return s
}

func availArrays(log *DeviceLog) [numLevels][]float64 {
	var out [numLevels][]float64
	//coalvet:allow maporder writes into a level-indexed array, order-insensitive
	for lvl, xs := range log.AvailableByLevel {
		if lvl >= 0 && lvl < numLevels {
			out[lvl] = append([]float64(nil), xs...)
		}
	}
	return out
}

// topLess is the total order of the Figure 5 heap: pressure share
// descending, user ID ascending — ties must order the same way
// whatever the fold or merge order.
func topLess(a, b *fig5Candidate) bool {
	if a.HighShare != b.HighShare {
		return a.HighShare > b.HighShare
	}
	return a.ID < b.ID
}

func (a *FleetAggregate) insertTop(c *fig5Candidate) {
	a.Top = append(a.Top, c)
	sort.Slice(a.Top, func(i, j int) bool { return topLess(a.Top[i], a.Top[j]) })
	if len(a.Top) > a.TopK {
		a.Top = a.Top[:a.TopK]
	}
}

func (a *FleetAggregate) insertSummary(s *DeviceSummary) {
	if len(a.Summaries) == a.ExactRetain && a.Summaries[len(a.Summaries)-1].Index < s.Index {
		return
	}
	a.Summaries = append(a.Summaries, s)
	sort.Slice(a.Summaries, func(i, j int) bool { return a.Summaries[i].Index < a.Summaries[j].Index })
	if len(a.Summaries) > a.ExactRetain {
		a.Summaries = a.Summaries[:a.ExactRetain]
	}
}

// Merge folds o (an aggregate over a disjoint user set with identical
// parameters) into a.
func (a *FleetAggregate) Merge(o *FleetAggregate) {
	a.Recruited += o.Recruited
	a.Kept += o.Kept
	a.Failed += o.Failed
	for i := range a.RatingCounts {
		for j := range a.RatingCounts[i] {
			a.RatingCounts[i][j] += o.RatingCounts[i][j]
		}
	}
	a.Util.Merge(o.Util)
	a.NAnySignal += o.NAnySignal
	a.NManyCritical += o.NManyCritical
	a.NUtil60 += o.NUtil60
	a.NHigh50 += o.NHigh50
	a.NHigh2 += o.NHigh2
	a.Trans.merge(&o.Trans)
	a.TransAll.merge(&o.TransAll)
	for _, c := range o.Top {
		a.insertTop(c)
	}
	a.Summaries = append(a.Summaries, o.Summaries...)
	sort.Slice(a.Summaries, func(i, j int) bool { return a.Summaries[i].Index < a.Summaries[j].Index })
	if len(a.Summaries) > a.ExactRetain {
		a.Summaries = a.Summaries[:a.ExactRetain]
	}
	a.Failures = append(a.Failures, o.Failures...)
	sort.Slice(a.Failures, func(i, j int) bool { return a.Failures[i].Index < a.Failures[j].Index })
	if len(a.Failures) > maxFailureRecords {
		a.Failures = a.Failures[:maxFailureRecords]
	}
}

// --- figure accessors (the streaming counterparts of Fleet's) ---

// Fig1Heatmap returns, per activity, the fraction of kept users giving
// each 1–5 rating. Exact at any scale (integer counts).
func (a *FleetAggregate) Fig1Heatmap() map[Activity][5]float64 {
	out := make(map[Activity][5]float64, numActivities)
	n := float64(a.Kept)
	for _, act := range Activities {
		var row [5]float64
		for r := 1; r <= 5; r++ {
			if n > 0 {
				row[r-1] = float64(a.RatingCounts[act][r]) / n
			}
		}
		out[act] = row
	}
	return out
}

// UtilCDFAt returns P[median utilization ≤ x] across devices
// (Figure 2): exact below the sketch cap, within the documented bin
// tolerance beyond it.
func (a *FleetAggregate) UtilCDFAt(x float64) float64 { return a.Util.CDFAt(x) }

// Fig3Scatter returns per-device per-level signal frequencies from the
// retained summaries. complete is false when the fleet outgrew the
// retention cap — the rows then cover only the first ExactRetain
// devices (headline fractions stay exact via Table1).
func (a *FleetAggregate) Fig3Scatter() (pts []SignalFreqPoint, complete bool) {
	for _, s := range a.Summaries {
		for _, lvl := range []proc.Level{proc.Moderate, proc.Low, proc.Critical} {
			pts = append(pts, SignalFreqPoint{
				User:    s.ID,
				RAMGiB:  s.RAMGiB,
				Level:   lvl,
				PerHour: s.SignalsPerHour[lvl],
			})
		}
	}
	return pts, int64(len(a.Summaries)) == a.Kept-a.Failed
}

// Fig4TimeShares returns per-device pressure-state time shares from
// the retained summaries; complete as in Fig3Scatter.
func (a *FleetAggregate) Fig4TimeShares() (pts []TimeSharePoint, complete bool) {
	for _, s := range a.Summaries {
		for _, lvl := range []proc.Level{proc.Moderate, proc.Low, proc.Critical} {
			pts = append(pts, TimeSharePoint{
				User:   s.ID,
				RAMGiB: s.RAMGiB,
				Level:  lvl,
				Share:  s.TimeShare[lvl],
			})
		}
	}
	return pts, int64(len(a.Summaries)) == a.Kept-a.Failed
}

// Fig5TopDevices returns the k most-pressured devices with their
// per-state available-memory distributions. Exact at any scale: the
// heap retains the raw availability samples for the surviving k.
func (a *FleetAggregate) Fig5TopDevices(k int) []Fig5Device {
	if k > len(a.Top) {
		k = len(a.Top)
	}
	out := make([]Fig5Device, 0, k)
	for _, c := range a.Top[:k] {
		d := Fig5Device{
			User:      c.ID,
			RAMGiB:    c.RAMGiB,
			ByLevel:   make(map[proc.Level]stats.BoxPlot),
			HighShare: c.HighShare,
		}
		for lvl := proc.Level(0); lvl < numLevels; lvl++ {
			if xs := c.AvailableByLevel[lvl]; len(xs) > 0 {
				d.ByLevel[lvl] = stats.NewBoxPlot(xs)
			}
		}
		out = append(out, d)
	}
	return out
}

// TopSummaries returns the retained most-pressured device summaries
// (share descending), for fleet-scale per-device tables.
func (a *FleetAggregate) TopSummaries(k int) []*DeviceSummary {
	if k > len(a.Top) {
		k = len(a.Top)
	}
	out := make([]*DeviceSummary, 0, k)
	for _, c := range a.Top[:k] {
		s := c.DeviceSummary
		out = append(out, &s)
	}
	return out
}

// Fig6Transitions returns the transition statistics over the
// most-pressured devices (HighShare ≥ MinHighShareFig6), falling back
// to the unfiltered set when no device qualified (small quick fleets).
// Dwell boxplots are exact below the sketch cap.
func (a *FleetAggregate) Fig6Transitions() Fig6Stats {
	t := &a.Trans
	if transEmpty(t) {
		t = &a.TransAll
	}
	out := Fig6Stats{
		NextShare: make(map[proc.Level]map[proc.Level]float64),
		Dwell:     make(map[proc.Level]stats.BoxPlot),
	}
	for from := 0; from < numLevels; from++ {
		var total int64
		for to := 0; to < numLevels; to++ {
			total += t.Counts[from][to]
		}
		if total == 0 {
			continue
		}
		shares := make(map[proc.Level]float64)
		for to := 0; to < numLevels; to++ {
			if c := t.Counts[from][to]; c > 0 {
				shares[proc.Level(to)] = 100 * float64(c) / float64(total)
			}
		}
		out.NextShare[proc.Level(from)] = shares
		if t.Dwell[from].N() > 0 {
			out.Dwell[proc.Level(from)] = t.Dwell[from].BoxPlot()
		}
	}
	return out
}

func transEmpty(t *TransitionAgg) bool {
	for i := range t.Counts {
		for j := range t.Counts[i] {
			if t.Counts[i][j] != 0 {
				return false
			}
		}
	}
	return true
}

// Table1 computes the §3 key-insight fractions from the streaming
// counters. Exact at any scale.
func (a *FleetAggregate) Table1() Insights {
	n := float64(a.Kept - a.Failed)
	if n == 0 {
		return Insights{}
	}
	return Insights{
		PctAnySignal:      100 * float64(a.NAnySignal) / n,
		PctManyCritical:   100 * float64(a.NManyCritical) / n,
		PctUtilOver60:     100 * float64(a.NUtil60) / n,
		PctHighTimeOver50: 100 * float64(a.NHigh50) / n,
		// Over-2% includes the over-50% devices (legacy semantics).
		PctHighTimeOver2: 100 * float64(a.NHigh2+a.NHigh50) / n,
	}
}
