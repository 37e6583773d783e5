package study

import (
	"fmt"
	"hash/fnv"

	"coalqoe/internal/proc"
	"coalqoe/internal/stats"
)

// MinInteractiveHours is the §3 data-cleaning threshold.
const MinInteractiveHours = 10.0

// UserSeed derives the simulation seed for one participant: a stable
// FNV-1a hash of the user's identity folded into the fleet seed — the
// same lane discipline as exp.CellSeed. The previous additive rule
// (seed + i*7919) put every user on arithmetically related lanes,
// which PR 1 already ruled out for experiment cells: nearby lanes of
// the same LCG family are cross-correlated, so "independent" users
// shared pressure realizations.
func UserSeed(fleetSeed int64, userID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(userID))
	return fleetSeed + int64(h.Sum64()&0x7fffffff)
}

// runUserSafe is RunUser behind a panic barrier, mirroring the
// hardened experiment executor (exp.runSafe): a user whose simulation
// panics yields a failure record instead of killing the process — in a
// worker goroutine the panic would otherwise be unrecoverable.
func runUserSafe(run func(*User, int64) *DeviceLog, u *User, seed int64) (log *DeviceLog, err error) {
	defer func() {
		if r := recover(); r != nil {
			log, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return run(u, seed), nil
}

// SignalFreqPoint is one Figure 3 scatter point.
type SignalFreqPoint struct {
	User    string
	RAMGiB  float64
	Level   proc.Level
	PerHour float64
}

// TimeSharePoint is one Figure 4 point: fraction of time a device
// spent at a pressure level.
type TimeSharePoint struct {
	User   string
	RAMGiB float64
	Level  proc.Level
	Share  float64
}

// Fig5Device is the available-memory distribution of one device across
// pressure states (Figure 5's violins, summarized as five-number
// boxplots).
type Fig5Device struct {
	User      string
	RAMGiB    float64
	ByLevel   map[proc.Level]stats.BoxPlot
	HighShare float64
}

// Fig6Stats aggregates pressure-state transitions (Figure 6): the
// next-state percentages and the dwell-time distributions, over the
// devices that spent the most time under pressure.
type Fig6Stats struct {
	// NextShare[from][to] is the percentage of transitions out of
	// `from` that land in `to`.
	NextShare map[proc.Level]map[proc.Level]float64
	// Dwell[from] summarizes how long devices stayed in `from` before
	// moving on.
	Dwell map[proc.Level]stats.BoxPlot
}

// Insights are the §3 rows of Table 1.
type Insights struct {
	// PctAnySignal is the share of devices receiving at least one
	// Moderate/Low/Critical signal per hour (paper: 63%).
	PctAnySignal float64
	// PctManyCritical is the share receiving > 10 critical signals
	// per hour (paper: 19%).
	PctManyCritical float64
	// PctUtilOver60 is the share with median utilization ≥ 60%
	// (paper: 80%).
	PctUtilOver60 float64
	// PctHighTimeOver50 is the share spending > 50% of time under
	// pressure (paper: 10%).
	PctHighTimeOver50 float64
	// PctHighTimeOver2 is the share spending ≥ 2% of time under
	// pressure (paper: 35%).
	PctHighTimeOver2 float64
}
