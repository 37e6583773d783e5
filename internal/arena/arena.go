// Package arena runs the all-pairs ABR tournament: every adaptation
// algorithm plays the same content on every device, under every memory
// -pressure regime and fault plan, and the runs are folded through the
// first-class QoE objective (internal/qoe.Objective) into one
// deterministic leaderboard. It is ROADMAP item 3: the paper's §6
// proposal judged against the classic baselines on the ground the
// paper cares about — quality delivered under memory pressure — rather
// than raw drop rates.
//
// Determinism contract: the tournament rides exp.RunGrid, so cells are
// seeded up front (exp.CellSeed ignores the OnSession hook, meaning
// every entrant faces the same pressure/fault realizations per cell —
// a paired comparison), results come back input-ordered, and all
// aggregation walks fixed slice orders. The leaderboard bytes are
// identical at any worker count; CI pins this with a golden digest.
package arena

import (
	"fmt"
	"io"
	"sort"
	"time"

	"coalqoe/internal/abr"
	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/exp"
	"coalqoe/internal/faults"
	"coalqoe/internal/netem"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/qoe"
	"coalqoe/internal/units"
)

// Entrant is one tournament competitor. New must return a fresh
// algorithm instance — it is called once per run, from executor
// workers, so stateful algorithms must not be shared across runs.
type Entrant struct {
	Name string
	New  func() abr.Algorithm
}

// Entrants returns the full arena roster: the classic baselines, the
// paper's §6 wrapper, and the two objective-driven newcomers.
func Entrants() []Entrant {
	return []Entrant{
		{"fixed", func() abr.Algorithm { return abr.Fixed{} }},
		{"rate", func() abr.Algorithm { return abr.RateBased{} }},
		{"bba", func() abr.Algorithm { return abr.BufferBased{} }},
		{"bola", func() abr.Algorithm { return abr.BOLA{} }},
		{"memaware", func() abr.Algorithm { return &abr.MemoryAware{Inner: abr.BOLA{}} }},
		{"mpc", func() abr.Algorithm { return &abr.MPC{} }},
		{"memopt", func() abr.Algorithm { return &abr.QoEAware{} }},
	}
}

// Plan is one fault-plan axis value; a nil Spec is the no-faults
// control and renders as "none".
type Plan struct {
	Name string
	Spec *faults.Spec
}

// plans is the arena's fault axis: clean conditions, the memory-spike
// storm (the paper's subject), and flaky WiFi (the network control the
// classic algorithms were designed for).
var plans = func() []Plan {
	mem, net := faults.MemStorm(), faults.NetFlaky()
	return []Plan{{Name: "none"}, {Name: mem.Name, Spec: &mem}, {Name: net.Name, Spec: &net}}
}()

// entrants is the roster every tournament runs; devices is its device
// axis, the paper's three phones.
var (
	entrants = Entrants()
	devices  = []device.Profile{device.Nokia1, device.Nexus5, device.Nexus6P}
)

// startRes/startFPS is the rung every arena session starts on.
const (
	startRes = dash.R1080p
	startFPS = 60
)

// video returns the arena content: the travel video, cut to 60s in
// quick mode.
func video(quick bool) dash.Video {
	v := dash.TestVideos[0]
	if quick {
		v.Duration = 60 * time.Second
	}
	return v
}

// Config parameterizes a tournament.
type Config struct {
	// Seed, Runs, Quick, Parallel and Progress mirror exp.Options.
	Seed     int64
	Runs     int
	Quick    bool
	Parallel int
	Progress func(exp.ProgressEvent)

	// Regimes defaults to Normal / Moderate / Critical.
	Regimes []proc.Level
}

// linkRate/linkDelay shape the bottleneck link every arena run plays
// over. The paper's LAN "never became a bottleneck", but a tournament
// judging network algorithms needs a network that can lose: marginal
// WiFi — 12 Mbps, 25 ms — sustains 1080p30 but not the 1440p tier, so
// the throughput rules have real work on the netflaky axis too.
const (
	linkRate  = 12 * units.Mbps
	linkDelay = 25 * time.Millisecond
)

func (c *Config) applyDefaults() {
	if c.Runs <= 0 {
		if c.Quick {
			c.Runs = 2
		} else {
			c.Runs = 3
		}
	}
	if len(c.Regimes) == 0 {
		c.Regimes = []proc.Level{proc.Normal, proc.Moderate, proc.Critical}
	}
}

// tweaks is the PlayerTweaks hook installing the arena link.
func tweaks(pc *player.Config) {
	pc.Link = netem.NewLink(pc.Device.Clock, linkRate, linkDelay)
}

// ladder returns the decision/scoring ladder — the same 24/30/48/60
// rung set VideoRun defaults the manifest to.
func ladder() []dash.Rung {
	return dash.Ladder(24, 30, 48, 60)
}

// Objective returns the scoring objective for this configuration.
func (c *Config) Objective() *qoe.Objective {
	return qoe.DefaultObjective(ladder(), video(c.Quick))
}

// Cell is one tournament cell: an (entrant, device, regime, plan)
// combination aggregated over the configured repeats.
type Cell struct {
	Entrant string
	Device  string
	Regime  proc.Level
	Plan    string

	// QoE is the mean objective breakdown over completed runs.
	QoE qoe.Breakdown
	// MOS and Drops are companion means (absolute opinion score,
	// effective drop rate %).
	MOS, Drops float64
	// Crashes counts crashed runs, Failed counts runs the executor
	// marked failed (panic/deadline), Runs the repeat count.
	Crashes, Failed, Runs int
}

// Result is a finished tournament.
type Result struct {
	Config Config
	// Cells in grid order: entrants × devices × regimes × plans.
	Cells []Cell
	// Board is the leaderboard: per-entrant aggregates sorted by mean
	// QoE descending (ties by name).
	Board []Standing
}

// Standing is one leaderboard row.
type Standing struct {
	Entrant string
	// QoE is the grand mean of the objective total across the
	// entrant's cells; the component fields mirror its breakdown.
	QoE        qoe.Breakdown
	MOS, Drops float64
	Crashes    int
	// Wins counts cells where this entrant scored the strictly best
	// QoE among all entrants under the same conditions.
	Wins int
}

// Run executes the tournament.
func Run(cfg Config) *Result {
	cfg.applyDefaults()
	v := video(cfg.Quick)
	obj := qoe.DefaultObjective(ladder(), v)

	type key struct{ e, d, reg, p int }
	var cells []exp.VideoRun
	var keys []key
	for ei, e := range entrants {
		mk := e.New
		for di, d := range devices {
			for ri, reg := range cfg.Regimes {
				for pi, p := range plans {
					vr := exp.VideoRun{
						Profile:      d,
						Video:        v,
						Resolution:   startRes,
						FPS:          startFPS,
						Pressure:     reg,
						Faults:       p.Spec,
						PlayerTweaks: tweaks,
						OnSession: func(s *player.Session, dev *device.Device) {
							abr.Attach(s, dev, mk(), 2*time.Second)
						},
					}
					cells = append(cells, vr)
					keys = append(keys, key{ei, di, ri, pi})
				}
			}
		}
	}

	opts := exp.Options{
		Seed: cfg.Seed, Runs: cfg.Runs, Quick: cfg.Quick,
		Parallel: cfg.Parallel, Progress: cfg.Progress,
	}
	grid := exp.RunGrid(opts, cells)

	res := &Result{Config: cfg}
	for i, runs := range grid {
		k := keys[i]
		c := Cell{
			Entrant: entrants[k.e].Name,
			Device:  devices[k.d].Name,
			Regime:  cfg.Regimes[k.reg],
			Plan:    plans[k.p].Name,
			Runs:    len(runs),
		}
		n := 0
		for _, r := range runs {
			if r.Failed {
				c.Failed++
				continue
			}
			n++
			b := obj.Score(qoe.TraceFrom(r.Metrics, v))
			c.QoE.Quality += b.Quality
			c.QoE.Startup += b.Startup
			c.QoE.Rebuffer += b.Rebuffer
			c.QoE.Smoothness += b.Smoothness
			c.QoE.Energy += b.Energy
			c.QoE.Crash += b.Crash
			c.QoE.Total += b.Total
			c.MOS += qoe.MOS(r.Metrics)
			c.Drops += r.Metrics.EffectiveDropRate
			if r.Metrics.Crashed {
				c.Crashes++
			}
		}
		if n > 0 {
			inv := 1 / float64(n)
			c.QoE.Quality *= inv
			c.QoE.Startup *= inv
			c.QoE.Rebuffer *= inv
			c.QoE.Smoothness *= inv
			c.QoE.Energy *= inv
			c.QoE.Crash *= inv
			c.QoE.Total *= inv
			c.MOS *= inv
			c.Drops *= inv
		}
		res.Cells = append(res.Cells, c)
	}

	res.Board = standings(cfg, res.Cells)
	return res
}

// standings folds cells into the per-entrant leaderboard.
func standings(cfg Config, cells []Cell) []Standing {
	perEntrant := len(devices) * len(cfg.Regimes) * len(plans)
	board := make([]Standing, len(entrants))
	for i, e := range entrants {
		s := Standing{Entrant: e.Name}
		for j := i * perEntrant; j < (i+1)*perEntrant; j++ {
			c := cells[j]
			s.QoE.Quality += c.QoE.Quality
			s.QoE.Startup += c.QoE.Startup
			s.QoE.Rebuffer += c.QoE.Rebuffer
			s.QoE.Smoothness += c.QoE.Smoothness
			s.QoE.Energy += c.QoE.Energy
			s.QoE.Crash += c.QoE.Crash
			s.QoE.Total += c.QoE.Total
			s.MOS += c.MOS
			s.Drops += c.Drops
			s.Crashes += c.Crashes
		}
		if perEntrant > 0 {
			inv := 1 / float64(perEntrant)
			s.QoE.Quality *= inv
			s.QoE.Startup *= inv
			s.QoE.Rebuffer *= inv
			s.QoE.Smoothness *= inv
			s.QoE.Energy *= inv
			s.QoE.Crash *= inv
			s.QoE.Total *= inv
			s.MOS *= inv
			s.Drops *= inv
		}
		board[i] = s
	}
	// Wins: per (device, regime, plan) condition, the strictly best
	// QoE total takes the cell.
	for j := 0; j < perEntrant; j++ {
		bestIdx, best := -1, 0.0
		unique := true
		for i := range entrants {
			q := cells[i*perEntrant+j].QoE.Total
			if bestIdx == -1 || q > best {
				bestIdx, best, unique = i, q, true
			} else if q == best {
				unique = false
			}
		}
		if bestIdx >= 0 && unique {
			board[bestIdx].Wins++
		}
	}
	sort.SliceStable(board, func(i, j int) bool {
		if board[i].QoE.Total != board[j].QoE.Total {
			return board[i].QoE.Total > board[j].QoE.Total
		}
		return board[i].Entrant < board[j].Entrant
	})
	return board
}

// PlanMeans returns each entrant's mean QoE total restricted to one
// fault plan, in board order — the slice the acceptance check "memopt
// beats rate under memstorm" reads.
func (r *Result) PlanMeans(plan string) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, c := range r.Cells {
		if c.Plan != plan {
			continue
		}
		sum[c.Entrant] += c.QoE.Total
		n[c.Entrant]++
	}
	out := make(map[string]float64, len(sum))
	//coalvet:allow maporder key-to-key map fold; callers index by entrant name
	for e, s := range sum {
		out[e] = s / float64(n[e])
	}
	return out
}

// WriteLeaderboard renders the deterministic tournament report: the
// leaderboard, the per-plan aggregate matrix, and the full per-cell
// table. Byte-identical at any executor parallelism.
func (r *Result) WriteLeaderboard(w io.Writer) error {
	cfg := r.Config
	if _, err := fmt.Fprintf(w, "== arena: ABR tournament leaderboard ==\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "grid: %d algorithms x %d devices x %d regimes x %d plans, %d runs/cell, seed %d\n",
		len(entrants), len(devices), len(cfg.Regimes), len(plans), cfg.Runs, cfg.Seed)
	v := video(cfg.Quick)
	fmt.Fprintf(w, "content: %s (%v, start %s%d)\n", v.Title, v.Duration, startRes, startFPS)
	fmt.Fprintf(w, "objective: quality - startup - rebuffer - smoothness - energy - crash (per expected chunk)\n\n")

	fmt.Fprintf(w, "%-4s %-9s %8s %8s %8s %8s %7s %7s %7s %6s %7s %7s %5s\n",
		"rank", "algorithm", "QoE", "quality", "startup", "rebuf", "smooth", "energy", "crash", "MOS", "drops", "crashes", "wins")
	for i, s := range r.Board {
		fmt.Fprintf(w, "%-4d %-9s %8.2f %8.2f %8.2f %8.2f %7.2f %7.2f %7.2f %6.2f %6.1f%% %7d %5d\n",
			i+1, s.Entrant, s.QoE.Total, s.QoE.Quality, s.QoE.Startup, s.QoE.Rebuffer,
			s.QoE.Smoothness, s.QoE.Energy, s.QoE.Crash, s.MOS, s.Drops, s.Crashes, s.Wins)
	}

	fmt.Fprintf(w, "\nmean QoE by fault plan:\n")
	fmt.Fprintf(w, "%-9s", "algorithm")
	for _, p := range plans {
		fmt.Fprintf(w, " %9s", p.Name)
	}
	fmt.Fprintln(w)
	for _, s := range r.Board {
		fmt.Fprintf(w, "%-9s", s.Entrant)
		for _, p := range plans {
			fmt.Fprintf(w, " %9.2f", r.PlanMeans(p.Name)[s.Entrant])
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nper-cell QoE (device / regime / plan):\n")
	for _, c := range r.Cells {
		note := ""
		if c.Failed > 0 {
			note = fmt.Sprintf("  [%d/%d runs failed]", c.Failed, c.Runs)
		}
		if _, err := fmt.Fprintf(w, "%-9s %-8s %-8s %-9s QoE=%8.2f MOS=%.2f drops=%5.1f%% crashes=%d/%d%s\n",
			c.Entrant, c.Device, c.Regime, c.Plan, c.QoE.Total, c.MOS, c.Drops, c.Crashes, c.Runs, note); err != nil {
			return err
		}
	}
	return nil
}
