// Package study reproduces the paper's §3 user study: a fleet of
// Android devices whose owners' natural usage patterns drive memory
// pressure, monitored by a SignalCapturer-equivalent sampler.
//
// The real study recruited 80 users (48 kept after requiring ≥10 h of
// interactive data), spanning 12 manufacturers and 1–8 GB of RAM, and
// logged at 1 Hz. Here each participant is a synthetic user profile —
// device size, app-launch cadence, app-size distribution, multitasking
// habit, and activity preferences (Figure 1's games/music/video
// ratings) — running on the full simulated kernel substrate, so the
// pressure signals come out of the same lmkd/kswapd machinery the
// video experiments use, not from a statistical shortcut.
package study

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"coalqoe/internal/device"
	"coalqoe/internal/lmkd"
	"coalqoe/internal/proc"
	"coalqoe/internal/units"
)

// Activity is a surveyed usage category (Figure 1).
type Activity int

// Survey activities.
const (
	PlayingGames Activity = iota
	ListeningMusic
	StreamingVideo
)

// Activities lists the surveyed categories.
var Activities = []Activity{PlayingGames, ListeningMusic, StreamingVideo}

// String names the activity as the survey did.
func (a Activity) String() string {
	switch a {
	case PlayingGames:
		return "playing games"
	case ListeningMusic:
		return "listening to music"
	case StreamingVideo:
		return "streaming videos"
	default:
		return fmt.Sprintf("Activity(%d)", int(a))
	}
}

// User is one synthetic participant.
type User struct {
	ID string
	// Vendor is the device manufacturer. When set, the device profile's
	// signal-threshold spread is keyed by vendor (all devices of one
	// manufacturer share their tuning, the paper's 12-manufacturer
	// spread); empty keeps the legacy per-user spread.
	Vendor string
	// LMK, when non-nil, applies a vendor lmkd tuning to the device.
	LMK *lmkd.Config
	// RAM of their device.
	RAM units.Bytes
	// Cores and CoreSpeed shape the device profile.
	Cores     int
	CoreSpeed float64
	// InteractiveHours is how much screen-on data the user contributes
	// (the study keeps users with ≥ 10 h).
	InteractiveHours float64
	// LaunchEvery is the app-launch cadence while interactive.
	LaunchEvery time.Duration
	// AppMiB is the mean foreground-app heap in MiB.
	AppMiB float64
	// MultitaskApps is how many recent apps the user keeps around
	// (the survey's multitasking question).
	MultitaskApps int
	// Ratings are the 1–5 activity-frequency answers (Figure 1).
	Ratings map[Activity]int
}

// GenerateUsers builds n participants with the study's demographics:
// device RAM from 1–8 GB skewed toward the low end (the study spans
// entry-level to flagship), usage intensity loosely anti-correlated
// with device class (budget devices run closer to their limits).
func GenerateUsers(n int, seed int64) []*User {
	rng := rand.New(rand.NewSource(seed))
	ramChoices := []units.Bytes{
		1 * units.GiB, 2 * units.GiB, 2 * units.GiB, 3 * units.GiB,
		3 * units.GiB, 4 * units.GiB, 4 * units.GiB, 6 * units.GiB, 8 * units.GiB,
	}
	users := make([]*User, n)
	for i := range users {
		ram := ramChoices[rng.Intn(len(ramChoices))]
		gib := float64(ram) / float64(units.GiB)
		// Heavier multitasking and bigger apps on any device; budget
		// devices have less headroom for the same behavior.
		intensity := 0.7 + 0.9*rng.Float64()
		// A small tail of extreme multitaskers never lets go of apps;
		// these are the paper's devices that spent >40% of their time
		// in high-pressure states.
		hoarder := rng.Float64() < 0.06
		if hoarder {
			intensity *= 1.6
		}
		u := &User{
			ID:               fmt.Sprintf("user%02d", i),
			RAM:              ram,
			Cores:            4 + 2*rng.Intn(3),
			CoreSpeed:        1.0 + 0.4*gib*rng.Float64(),
			InteractiveHours: 2 + rng.Float64()*46, // 2–48 h
			LaunchEvery:      time.Duration(25+rng.Intn(120)) * time.Second,
			AppMiB:           (90 + 130*rng.Float64()) * intensity * (0.85 + 0.08*gib),
			MultitaskApps:    3 + int(gib/2) + rng.Intn(4),
		}
		if hoarder {
			u.MultitaskApps += 5
			u.LaunchEvery /= 2
		}
		u.Ratings = surveyRatings(rng)
		users[i] = u
	}
	return users
}

// surveyRatings draws Figure 1's distribution: video streaming is the
// most frequent activity, music next, games spread widest.
func surveyRatings(rng *rand.Rand) map[Activity]int {
	pick := func(weights [5]int) int {
		total := 0
		for _, w := range weights {
			total += w
		}
		x := rng.Intn(total)
		for i, w := range weights {
			if x < w {
				return i + 1
			}
			x -= w
		}
		return 5
	}
	return map[Activity]int{
		// weights for ratings 1..5
		PlayingGames:   pick([5]int{30, 20, 18, 17, 15}),
		ListeningMusic: pick([5]int{10, 15, 25, 28, 22}),
		StreamingVideo: pick([5]int{4, 8, 18, 32, 38}),
	}
}

// Sample is one 1 Hz SignalCapturer record.
type Sample struct {
	At          time.Duration
	Utilization float64
	Available   units.Pages
	Level       proc.Level
}

// Transition is a state change in the pressure-level sequence.
type Transition struct {
	From, To proc.Level
	// Dwell is the time spent in From before moving to To.
	Dwell time.Duration
}

// DeviceLog is the collected telemetry for one participant.
type DeviceLog struct {
	User *User
	// ObservedHours is the simulated interactive time.
	ObservedHours float64
	// Samples are the 1 Hz records.
	Samples []Sample
	// SignalsPerHour counts emitted signals by level, normalized.
	SignalsPerHour map[proc.Level]float64
	// TimeShare is the fraction of time spent at each level.
	TimeShare map[proc.Level]float64
	// Transitions lists the level changes with dwell times.
	Transitions []Transition
	// MedianUtilization is the median RAM utilization (Figure 2).
	MedianUtilization float64
	// AvailableByLevel collects available-memory samples per level
	// (Figure 5).
	AvailableByLevel map[proc.Level][]float64
}

// SimHours caps how long each participant's device is actually
// simulated; per-hour statistics are normalized by the simulated span.
const SimHours = 1.5

// RunUser simulates one participant's device under their usage pattern
// and returns the SignalCapturer log.
func RunUser(u *User, seed int64) *DeviceLog {
	// The profile key drives the vendor threshold spread in
	// device.Generic: vendor-keyed when the population models
	// manufacturers, per-user otherwise (legacy behavior).
	key := u.ID
	if u.Vendor != "" {
		key = u.Vendor
	}
	profile := device.Generic(key, u.RAM, u.Cores, u.CoreSpeed)
	profile.Name = u.ID
	// The fleet study doesn't need frame-accurate scheduling: a coarse
	// tick keeps 48 devices × hours tractable.
	dev := device.New(seed, profile, device.Options{
		SchedTick:  20 * time.Millisecond,
		LmkdConfig: u.LMK,
	})
	dev.Settle(3 * time.Second)

	hours := u.InteractiveHours
	if hours > SimHours {
		hours = SimHours
	}
	span := time.Duration(hours * float64(time.Hour))

	runBehavior(dev, u)

	log := &DeviceLog{
		User:             u,
		ObservedHours:    hours,
		SignalsPerHour:   make(map[proc.Level]float64),
		TimeShare:        make(map[proc.Level]float64),
		AvailableByLevel: make(map[proc.Level][]float64),
	}

	// SignalCapturer: 1 Hz sampling.
	dev.Clock.Every(time.Second, func() {
		log.Samples = append(log.Samples, Sample{
			At:          dev.Clock.Now(),
			Utilization: dev.Mem.Utilization(),
			Available:   dev.Mem.Available(),
			Level:       dev.Table.Level(),
		})
	})

	start := dev.Clock.Now()
	dev.Run(start + span)

	analyze(log, dev, start, span)
	return log
}

// runBehavior drives the user's app usage: launch a new foreground app
// on their cadence, demote the old one to the cached LRU, and close
// the oldest beyond their multitasking depth.
func runBehavior(dev *device.Device, u *User) {
	rng := dev.Clock.Rand()
	var recents []*proc.Process
	counter := 0
	var current *proc.Process
	launch := func() {
		counter++
		size := u.AppMiB * (0.5 + rng.Float64())
		// Heavy sessions — games, editing, big social feeds — hold a
		// large foreground footprint for a while; gamers run them
		// more often.
		heavyChance := 0.25
		if u.Ratings[PlayingGames] >= 4 {
			heavyChance = 0.45
		}
		if rng.Float64() < heavyChance {
			size *= 3.5
		}
		if current != nil && !current.Dead() {
			current.SetCached(true, proc.AdjCached+counter%90)
			recents = append(recents, current)
		}
		// The user closes apps beyond their habit depth.
		for len(recents) > u.MultitaskApps {
			old := recents[0]
			recents = recents[1:]
			if !old.Dead() {
				dev.Table.Kill(old, "user closed")
			}
		}
		current = dev.Table.Start(proc.Spec{
			Name:        fmt.Sprintf("%s-app%03d", u.ID, counter),
			Adj:         proc.AdjForeground,
			AnonBytes:   units.Bytes(size * float64(units.MiB)),
			FileWSBytes: units.Bytes(size * 0.3 * float64(units.MiB)),
			HotAnonFrac: 0.65,
			RampTime:    4 * time.Second,
			WarmFor:     90 * time.Second,
		})
	}
	var loop func()
	loop = func() {
		launch()
		// Burst pattern: users often hop across several apps in quick
		// succession (messages, feed, back); the burst's allocation
		// spike is what trips a kill cascade and thus the signals.
		if rng.Float64() < 0.3 {
			for i := 1; i <= 2; i++ {
				dev.Clock.Schedule(time.Duration(i*4)*time.Second, func() { launch() })
			}
		}
		jitter := time.Duration(rng.Int63n(int64(u.LaunchEvery)))
		dev.Clock.Schedule(u.LaunchEvery/2+jitter, loop)
	}
	dev.Clock.Schedule(5*time.Second, loop)
}

// analyze derives the per-device statistics the §3 figures need.
func analyze(log *DeviceLog, dev *device.Device, start, span time.Duration) {
	hours := span.Hours()
	for _, sig := range dev.Table.Signals() {
		if sig.At < start || sig.Level == proc.Normal {
			continue
		}
		log.SignalsPerHour[sig.Level] += 1 / hours
	}
	var utils []float64
	levelTime := make(map[proc.Level]time.Duration)
	var prev *Sample
	for i := range log.Samples {
		s := &log.Samples[i]
		utils = append(utils, s.Utilization)
		log.AvailableByLevel[s.Level] = append(log.AvailableByLevel[s.Level], s.Available.MiB())
		if prev != nil {
			levelTime[prev.Level] += s.At - prev.At
		}
		prev = s
	}
	//coalvet:allow maporder key-to-key map transform, order-insensitive
	for l, d := range levelTime {
		log.TimeShare[l] = d.Seconds() / span.Seconds()
	}
	log.MedianUtilization = median(utils)
	log.Transitions = transitions(log.Samples)
}

// median returns the upper median of xs, a sample rather than the
// interpolation stats.Median gives, and sorts xs in place. Figure 2's
// per-device medians use this rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// transitions extracts level-change events with dwell times from the
// sample sequence (Figure 6).
func transitions(samples []Sample) []Transition {
	var out []Transition
	if len(samples) == 0 {
		return out
	}
	cur := samples[0].Level
	since := samples[0].At
	for _, s := range samples[1:] {
		if s.Level != cur {
			out = append(out, Transition{From: cur, To: s.Level, Dwell: s.At - since})
			cur = s.Level
			since = s.At
		}
	}
	return out
}
