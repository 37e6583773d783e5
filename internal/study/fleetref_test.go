package study

import (
	"sort"

	"coalqoe/internal/proc"
	"coalqoe/internal/stats"
	"coalqoe/internal/units"
)

// Fleet is the retained-log reference for the user study: participants
// plus one DeviceLog per kept user, with every figure computed directly
// from the logs. RunFleetStream is the only fleet runner; Fleet exists
// so tests can build one from the same logs and check that the
// streaming FleetAggregate reproduces its Fig*/Table1 results.
type Fleet struct {
	// Recruited is everyone who installed the app (the paper's 80).
	Recruited []*User
	// Kept are participants with ≥ MinInteractiveHours of screen-on
	// data (the paper's 48) — only they contribute to the analyses.
	Kept []*User
	// Logs holds one telemetry log per kept user. Users whose
	// simulation panicked are excluded (see Failures), so every entry
	// is non-nil.
	Logs []*DeviceLog
	// Failures records kept users whose simulation panicked; their
	// panic is captured per user (like the experiment executor's
	// hardened runs) instead of taking the process down.
	Failures []FleetFailure
}

// FleetFailure is one captured per-user simulation panic.
type FleetFailure struct {
	User   string `json:"user"`
	Reason string `json:"reason"`
}

// Fig1Heatmap returns, per activity, the fraction of kept users giving
// each 1–5 rating — the Figure 1 heatmap rows.
func (f *Fleet) Fig1Heatmap() map[Activity][5]float64 {
	out := make(map[Activity][5]float64, len(Activities))
	n := float64(len(f.Kept))
	for _, a := range Activities {
		var row [5]float64
		for _, u := range f.Kept {
			// A user with no answer for this activity (zero value) or a
			// corrupt rating must not index off the front of the row;
			// they simply don't contribute to the distribution.
			if r := u.Ratings[a]; r >= 1 && r <= 5 {
				row[r-1]++
			}
		}
		if n > 0 {
			for i := range row {
				row[i] /= n
			}
		}
		out[a] = row
	}
	return out
}

// Fig2CDF returns the CDF of median RAM utilization across devices.
func (f *Fleet) Fig2CDF() *stats.CDF {
	xs := make([]float64, len(f.Logs))
	for i, l := range f.Logs {
		xs[i] = l.MedianUtilization
	}
	return stats.NewCDF(xs)
}

// Fig3Scatter returns per-device per-level signal frequencies.
func (f *Fleet) Fig3Scatter() []SignalFreqPoint {
	var out []SignalFreqPoint
	for _, l := range f.Logs {
		for _, lvl := range []proc.Level{proc.Moderate, proc.Low, proc.Critical} {
			out = append(out, SignalFreqPoint{
				User:    l.User.ID,
				RAMGiB:  float64(l.User.RAM) / float64(units.GiB),
				Level:   lvl,
				PerHour: l.SignalsPerHour[lvl],
			})
		}
	}
	return out
}

// Fig4TimeShares returns per-device time shares in non-Normal states.
func (f *Fleet) Fig4TimeShares() []TimeSharePoint {
	var out []TimeSharePoint
	for _, l := range f.Logs {
		for _, lvl := range []proc.Level{proc.Moderate, proc.Low, proc.Critical} {
			out = append(out, TimeSharePoint{
				User:   l.User.ID,
				RAMGiB: float64(l.User.RAM) / float64(units.GiB),
				Level:  lvl,
				Share:  l.TimeShare[lvl],
			})
		}
	}
	return out
}

// highPressureShare is the fraction of time outside Normal.
func highPressureShare(l *DeviceLog) float64 {
	return l.TimeShare[proc.Moderate] + l.TimeShare[proc.Low] + l.TimeShare[proc.Critical]
}

// Fig5TopDevices returns the k devices that spent the most time out of
// Normal, with their per-state available-memory distributions.
func (f *Fleet) Fig5TopDevices(k int) []Fig5Device {
	logs := append([]*DeviceLog(nil), f.Logs...)
	// Share descending with an explicit user-ID tie-break: equal shares
	// must order the same way on every run for byte-identical reports
	// (the previous O(n²) selection sort tie-broke on slice position).
	sort.Slice(logs, func(i, j int) bool {
		hi, hj := highPressureShare(logs[i]), highPressureShare(logs[j])
		if hi != hj {
			return hi > hj
		}
		return logs[i].User.ID < logs[j].User.ID
	})
	if k > len(logs) {
		k = len(logs)
	}
	out := make([]Fig5Device, 0, k)
	for _, l := range logs[:k] {
		d := Fig5Device{
			User:      l.User.ID,
			RAMGiB:    float64(l.User.RAM) / float64(units.GiB),
			ByLevel:   make(map[proc.Level]stats.BoxPlot),
			HighShare: highPressureShare(l),
		}
		//coalvet:allow maporder key-to-key map transform, order-insensitive
		for lvl, xs := range l.AvailableByLevel {
			d.ByLevel[lvl] = stats.NewBoxPlot(xs)
		}
		out = append(out, d)
	}
	return out
}

// Fig6Transitions computes the transition statistics over devices with
// at least minHighShare of their time under pressure (the paper used
// the nine devices above 30%).
func (f *Fleet) Fig6Transitions(minHighShare float64) Fig6Stats {
	counts := make(map[proc.Level]map[proc.Level]int)
	dwell := make(map[proc.Level][]float64)
	for _, l := range f.Logs {
		if highPressureShare(l) < minHighShare {
			continue
		}
		for _, tr := range l.Transitions {
			if counts[tr.From] == nil {
				counts[tr.From] = make(map[proc.Level]int)
			}
			counts[tr.From][tr.To]++
			dwell[tr.From] = append(dwell[tr.From], tr.Dwell.Seconds())
		}
	}
	out := Fig6Stats{
		NextShare: make(map[proc.Level]map[proc.Level]float64),
		Dwell:     make(map[proc.Level]stats.BoxPlot),
	}
	//coalvet:allow maporder key-to-key map transform, order-insensitive
	for from, tos := range counts {
		total := 0
		//coalvet:allow maporder integer count sum, order-insensitive
		for _, c := range tos {
			total += c
		}
		out.NextShare[from] = make(map[proc.Level]float64)
		//coalvet:allow maporder key-to-key map transform, order-insensitive
		for to, c := range tos {
			out.NextShare[from][to] = 100 * float64(c) / float64(total)
		}
	}
	//coalvet:allow maporder key-to-key map transform, order-insensitive
	for from, xs := range dwell {
		out.Dwell[from] = stats.NewBoxPlot(xs)
	}
	return out
}

// Table1 computes the §3 key-insight fractions.
func (f *Fleet) Table1() Insights {
	var ins Insights
	n := float64(len(f.Logs))
	if n == 0 {
		return ins
	}
	for _, l := range f.Logs {
		any := l.SignalsPerHour[proc.Moderate] + l.SignalsPerHour[proc.Low] + l.SignalsPerHour[proc.Critical]
		if any >= 1 {
			ins.PctAnySignal += 100 / n
		}
		if l.SignalsPerHour[proc.Critical] > 10 {
			ins.PctManyCritical += 100 / n
		}
		if l.MedianUtilization >= 0.60 {
			ins.PctUtilOver60 += 100 / n
		}
		if hs := highPressureShare(l); hs > 0.5 {
			ins.PctHighTimeOver50 += 100 / n
		} else if hs >= 0.02 {
			ins.PctHighTimeOver2 += 100 / n
		}
	}
	// Over-2% includes the over-50% devices.
	ins.PctHighTimeOver2 += ins.PctHighTimeOver50
	return ins
}
