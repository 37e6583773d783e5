package study

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"coalqoe/internal/proc"
	"coalqoe/internal/units"
)

// aggBytes is the byte-identity oracle: the serialized canonical state.
func aggBytes(t *testing.T, a *FleetAggregate) string {
	t.Helper()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal aggregate: %v", err)
	}
	return string(data)
}

func TestUserSeedStableAndSpread(t *testing.T) {
	if UserSeed(7, "user01") != UserSeed(7, "user01") {
		t.Fatal("UserSeed not stable")
	}
	// The old additive rule mapped consecutive users onto arithmetically
	// related lanes; identity hashing must not.
	d1 := UserSeed(7, "user01") - UserSeed(7, "user00")
	d2 := UserSeed(7, "user02") - UserSeed(7, "user01")
	if d1 == d2 {
		t.Fatalf("consecutive user seeds are arithmetically related (delta %d)", d1)
	}
	if UserSeed(7, "a") == UserSeed(8, "a")-1 && UserSeed(7, "b") == UserSeed(8, "b")-1 {
		// Seeds shift with the fleet seed — that part is by design.
		t.Log("fleet-seed shift preserved")
	}
}

// TestStreamSerialVsSharded holds the tentpole determinism contract:
// the merged aggregate serializes byte-identically whatever the shard
// and worker counts. Run under -race in CI, this doubles as the data
// race check on the engine.
func TestStreamSerialVsSharded(t *testing.T) {
	n := int64(1500)
	pop := DefaultPopulation(n, 42)
	var want string
	for _, c := range []struct{ shards, workers int }{
		{1, 1}, {5, 2}, {16, 8}, {97, 4},
	} {
		agg, st, err := RunFleetStream(FleetConfig{
			Seed: 42, Population: pop,
			Shards: c.shards, Workers: c.workers,
			Runner: SyntheticRunner(),
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", c.shards, err)
		}
		if st.Shards != c.shards {
			t.Fatalf("shards=%d: stats reported %d", c.shards, st.Shards)
		}
		got := aggBytes(t, agg)
		if want == "" {
			want = got
			if agg.Recruited != n {
				t.Fatalf("recruited %d, want %d", agg.Recruited, n)
			}
			continue
		}
		if got != want {
			t.Errorf("shards=%d workers=%d: aggregate differs from serial run", c.shards, c.workers)
		}
	}
}

// TestStreamCheckpointResume kills a run mid-flight (HaltAfter) and
// resumes it; the finished aggregate must be byte-identical to an
// uninterrupted run. Shards hold 600 users and the halt lands after
// about 400 per in-flight shard, so each of those writes a periodic
// checkpoint (every checkpointEvery users) before its halt checkpoint.
func TestStreamCheckpointResume(t *testing.T) {
	const users = 4800
	pop := DefaultPopulation(users, 9)
	base := FleetConfig{
		Seed: 9, Population: pop, Shards: 8, Workers: 3,
		Runner: SyntheticRunner(),
	}

	straight := base
	full, _, err := RunFleetStream(straight)
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}
	want := aggBytes(t, full)

	killed := base
	killed.CheckpointDir = t.TempDir()
	killed.HaltAfter = 1200
	if agg, st, err := RunFleetStream(killed); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run: agg=%v err=%v", agg, err)
	} else if agg != nil {
		t.Fatal("halted run returned a partial aggregate")
	} else if st.Checkpoints == 0 {
		t.Fatal("halted run wrote no checkpoints")
	}

	resumed := killed
	resumed.HaltAfter = 0
	resumed.Resume = true
	agg, st, err := RunFleetStream(resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if st.UsersSkipped == 0 {
		t.Error("resume re-simulated everything (no users skipped)")
	}
	if st.UsersRun+st.UsersSkipped != users {
		t.Errorf("run %d + skipped %d != %d", st.UsersRun, st.UsersSkipped, users)
	}
	if got := aggBytes(t, agg); got != want {
		t.Error("resumed aggregate differs from uninterrupted run")
	}
}

func TestStreamResumeRefusesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	pop := DefaultPopulation(200, 1)
	cfg := FleetConfig{Seed: 1, Population: pop, Shards: 4, Workers: 2,
		CheckpointDir: dir, HaltAfter: 50, Runner: SyntheticRunner()}
	if _, _, err := RunFleetStream(cfg); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run: %v", err)
	}
	cfg.Seed = 2 // different run configuration
	cfg.HaltAfter = 0
	cfg.Resume = true
	if _, _, err := RunFleetStream(cfg); err == nil ||
		!strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("resume under a different seed: err = %v, want fingerprint refusal", err)
	}
}

// TestStreamResumeRejectsCorruptCheckpoint edits a real checkpoint,
// halted after two of eight users, into states no run could have
// written. Each must be refused at load: unchecked, a null aggregate
// panicked inside a worker, next -5 indexed out of range, next 0
// counted users 0 and 1 twice, and next 100 skipped the whole fleet.
func TestStreamResumeRejectsCorruptCheckpoint(t *testing.T) {
	cfg, data := haltedFleet(t)
	for _, c := range []struct{ field, value string }{
		{"agg", "null"}, {"next", "-5"}, {"next", "0"}, {"next", "100"},
	} {
		t.Run(c.field+"="+c.value, func(t *testing.T) {
			var ck map[string]json.RawMessage
			if err := json.Unmarshal(data, &ck); err != nil {
				t.Fatal(err)
			}
			ck[c.field] = json.RawMessage(c.value)
			edited, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := resumeWith(t, cfg, edited); err == nil ||
				!strings.HasPrefix(err.Error(), "study: corrupt checkpoint ") {
				t.Fatalf("err = %v, want a corrupt-checkpoint refusal", err)
			}
		})
	}
	agg, _, err := resumeWith(t, cfg, data)
	if err != nil {
		t.Fatalf("unedited checkpoint: %v", err)
	}
	if agg.Recruited != cfg.Users {
		t.Fatalf("Recruited = %d, want %d", agg.Recruited, cfg.Users)
	}
}

func TestStreamHaltRequiresCheckpointDir(t *testing.T) {
	_, _, err := RunFleetStream(FleetConfig{Users: 10, Seed: 1, HaltAfter: 5,
		Runner: SyntheticRunner()})
	if err == nil {
		t.Fatal("HaltAfter without CheckpointDir must be refused")
	}
}

// TestStreamPanicIsolation: one user's panic becomes a failure record,
// not a dead run — the hardened-executor discipline.
func TestStreamPanicIsolation(t *testing.T) {
	users := GenerateUsers(30, 5)
	var victim string
	for _, u := range users {
		if u.InteractiveHours >= MinInteractiveHours {
			victim = u.ID
			break
		}
	}
	runner := SyntheticRunner()
	agg, _, err := RunFleetStream(FleetConfig{
		Seed: 5, Population: NewRoster(users), Shards: 4, Workers: 2,
		Runner: func(u *User, seed int64) *DeviceLog {
			if u.ID == victim {
				panic("synthetic kernel fault")
			}
			return runner(u, seed)
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if agg.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", agg.Failed)
	}
	if len(agg.Failures) != 1 || agg.Failures[0].User != victim ||
		!strings.Contains(agg.Failures[0].Reason, "synthetic kernel fault") {
		t.Fatalf("failure record = %+v", agg.Failures)
	}
	// The failed user still counts in the survey (Figure 1) but not in
	// the telemetry denominators (Table 1).
	if agg.Kept <= agg.Failed {
		t.Fatal("no successful users left")
	}
}

// TestStreamMillionUserBounded is the headline scaling property: a
// million-user panel (scaled down under -race) completes with bounded
// heap — no retained DeviceLogs or Samples.
func TestStreamMillionUserBounded(t *testing.T) {
	n := int64(1_000_000)
	if raceEnabled || testing.Short() {
		n = 60_000
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	agg, st, err := RunFleetStream(FleetConfig{
		Seed: 11, Population: DefaultPopulation(n, 11),
		Runner: SyntheticRunner(),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if agg.Recruited != n {
		t.Fatalf("recruited %d, want %d", agg.Recruited, n)
	}
	if st.UsersRun != n {
		t.Fatalf("users run %d, want %d", st.UsersRun, n)
	}
	if int64(len(agg.Summaries)) > int64(agg.ExactRetain) || len(agg.Top) > agg.TopK {
		t.Fatalf("retention caps violated: %d summaries, %d top", len(agg.Summaries), len(agg.Top))
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const heapCap = 256 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > heapCap {
		t.Errorf("heap grew by %d MiB across a %d-user fleet — logs are being retained",
			grew>>20, n)
	}

	// Sanity on the streamed figures at scale: Table 1 fractions are
	// proper percentages and the utilization CDF is monotone.
	ins := agg.Table1()
	for name, v := range map[string]float64{
		"any": ins.PctAnySignal, "crit": ins.PctManyCritical,
		"util": ins.PctUtilOver60, "h50": ins.PctHighTimeOver50, "h2": ins.PctHighTimeOver2,
	} {
		if v < 0 || v > 100 {
			t.Errorf("Table1 %s = %v out of range", name, v)
		}
	}
	if a, b := agg.UtilCDFAt(0.5), agg.UtilCDFAt(0.8); a > b {
		t.Errorf("utilization CDF not monotone: F(0.5)=%v > F(0.8)=%v", a, b)
	}
}

// craftedPanel is a small roster with edge cases: a zero-rating user
// (the Fig1 crash class) and one simulated failure.
func craftedPanel() ([]*User, map[string]*DeviceLog, string) {
	f := craftedFleet()
	users := append([]*User(nil), f.Recruited...)
	logs := map[string]*DeviceLog{}
	for _, l := range f.Logs {
		logs[l.User.ID] = l
	}
	// A user who skipped the games question entirely (zero rating).
	u3 := &User{ID: "shy", RAM: 2 * units.GiB, InteractiveHours: 30,
		Ratings: map[Activity]int{ListeningMusic: 2, StreamingVideo: 7}}
	logs["shy"] = &DeviceLog{
		User: u3, ObservedHours: 1,
		SignalsPerHour:    map[proc.Level]float64{proc.Moderate: 2},
		TimeShare:         map[proc.Level]float64{proc.Normal: 0.97, proc.Moderate: 0.03},
		MedianUtilization: 0.62,
		AvailableByLevel:  map[proc.Level][]float64{proc.Moderate: {300, 310, 290}},
		Transitions: []Transition{
			{From: proc.Normal, To: proc.Moderate, Dwell: 30 * time.Second},
			{From: proc.Moderate, To: proc.Normal, Dwell: 6 * time.Second},
		},
	}
	// A user whose simulation will "panic".
	u4 := &User{ID: "crashy", RAM: 1 * units.GiB, InteractiveHours: 15,
		Ratings: map[Activity]int{PlayingGames: 5, ListeningMusic: 5, StreamingVideo: 5}}
	users = append(users, u3, u4)
	return users, logs, "crashy"
}

// TestAggregateMatchesLegacyFleet folds the same crafted logs through
// both analysis paths — the retained Fleet and the streaming
// FleetAggregate — and requires every §3 figure to agree. This is the
// "figures 1–6 match at small n" acceptance gate, minus simulation.
func TestAggregateMatchesLegacyFleet(t *testing.T) {
	users, logs, crashID := craftedPanel()

	// Legacy path.
	f := &Fleet{Recruited: users, Kept: users}
	for _, u := range users {
		if u.ID == crashID {
			f.Failures = append(f.Failures, FleetFailure{User: u.ID, Reason: "panic: boom"})
			continue
		}
		f.Logs = append(f.Logs, logs[u.ID])
	}

	// Streaming path, folded in reverse order to exercise canonicality.
	agg := NewFleetAggregate()
	for i := len(users) - 1; i >= 0; i-- {
		u := users[i]
		if u.ID == crashID {
			agg.FoldFailure(u, int64(i), "panic: boom")
			continue
		}
		agg.Fold(u, logs[u.ID], int64(i))
	}

	// Figure 1 — including the zero-rating and out-of-range rows.
	h1, h2 := f.Fig1Heatmap(), agg.Fig1Heatmap()
	for _, act := range Activities {
		if h1[act] != h2[act] {
			t.Errorf("Fig1[%v]: legacy %v vs stream %v", act, h1[act], h2[act])
		}
	}

	// Figure 2 — CDF agreement at every observed utilization and between.
	cdf := f.Fig2CDF()
	for _, x := range []float64{0, 0.5, 0.55, 0.62, 0.7, 0.85, 1} {
		if a, b := cdf.At(x), agg.UtilCDFAt(x); math.Abs(a-b) > 1e-12 {
			t.Errorf("Fig2 CDF(%v): legacy %v vs stream %v", x, a, b)
		}
	}

	// Figures 3–4 — identical point sets (legacy iterates logs in keep
	// order; the aggregate's summaries sort by recruit index).
	p3, complete := agg.Fig3Scatter()
	if !complete {
		t.Error("Fig3 incomplete on a small panel")
	}
	if l3 := f.Fig3Scatter(); len(p3) != len(l3) {
		t.Errorf("Fig3: %d vs %d points", len(p3), len(l3))
	} else {
		for i := range p3 {
			if p3[i] != l3[i] {
				t.Errorf("Fig3[%d]: %+v vs %+v", i, p3[i], l3[i])
			}
		}
	}
	p4, _ := agg.Fig4TimeShares()
	if l4 := f.Fig4TimeShares(); len(p4) != len(l4) {
		t.Errorf("Fig4: %d vs %d points", len(p4), len(l4))
	} else {
		for i := range p4 {
			if p4[i] != l4[i] {
				t.Errorf("Fig4[%d]: %+v vs %+v", i, p4[i], l4[i])
			}
		}
	}

	// Figure 5 — same devices, same boxplots.
	top1, top2 := f.Fig5TopDevices(2), agg.Fig5TopDevices(2)
	if len(top1) != len(top2) {
		t.Fatalf("Fig5: %d vs %d devices", len(top1), len(top2))
	}
	for i := range top1 {
		if top1[i].User != top2[i].User || top1[i].HighShare != top2[i].HighShare {
			t.Errorf("Fig5[%d]: %s/%v vs %s/%v", i,
				top1[i].User, top1[i].HighShare, top2[i].User, top2[i].HighShare)
		}
		for lvl, bp := range top1[i].ByLevel {
			if bp != top2[i].ByLevel[lvl] {
				t.Errorf("Fig5[%d] level %v: %+v vs %+v", i, lvl, bp, top2[i].ByLevel[lvl])
			}
		}
	}

	// Figure 6 — filtered at the same threshold; dwell sketches are
	// exact at this size.
	g1, g2 := f.Fig6Transitions(MinHighShareFig6), agg.Fig6Transitions()
	for from, tos := range g1.NextShare {
		for to, pct := range tos {
			if got := g2.NextShare[from][to]; math.Abs(got-pct) > 1e-12 {
				t.Errorf("Fig6 %v->%v: legacy %v vs stream %v", from, to, pct, got)
			}
		}
	}
	for from, bp := range g1.Dwell {
		if got := g2.Dwell[from]; got != bp {
			t.Errorf("Fig6 dwell[%v]: legacy %+v vs stream %+v", from, bp, got)
		}
	}

	// Table 1 — legacy accumulates 100/n per device, the stream computes
	// 100·count/n; equal up to float re-association.
	i1, i2 := f.Table1(), agg.Table1()
	for _, c := range []struct{ a, b float64 }{
		{i1.PctAnySignal, i2.PctAnySignal},
		{i1.PctManyCritical, i2.PctManyCritical},
		{i1.PctUtilOver60, i2.PctUtilOver60},
		{i1.PctHighTimeOver50, i2.PctHighTimeOver50},
		{i1.PctHighTimeOver2, i2.PctHighTimeOver2},
	} {
		if math.Abs(c.a-c.b) > 1e-9 {
			t.Errorf("Table1: legacy %v vs stream %v", c.a, c.b)
		}
	}
}

// TestFig1ZeroRatingRegression pins the crash the old
// `row[u.Ratings[a]-1]++` had on unset map entries (satellite 2).
func TestFig1ZeroRatingRegression(t *testing.T) {
	u := &User{ID: "blank", InteractiveHours: 20, Ratings: map[Activity]int{}}
	f := &Fleet{Recruited: []*User{u}, Kept: []*User{u}}
	h := f.Fig1Heatmap() // must not panic
	for _, act := range Activities {
		for r, frac := range h[act] {
			if frac != 0 {
				t.Errorf("blank user contributed to %v rating %d", act, r+1)
			}
		}
	}
	agg := NewFleetAggregate()
	agg.foldRatings(u)
	for _, act := range Activities {
		if agg.RatingCounts[act][0] != 1 {
			t.Errorf("unset rating for %v not routed to bucket 0: %v", act, agg.RatingCounts[act])
		}
	}
}

// TestStratifiedPopulationPure verifies the PopulationModel purity
// contract User(i) depends only on (model, i) — the property shard
// resume is built on — plus basic stratification shape.
func TestStratifiedPopulationPure(t *testing.T) {
	p := DefaultPopulation(500, 3)
	q := DefaultPopulation(500, 3)
	vendors := map[string]int{}
	rams := map[units.Bytes]int{}
	for i := int64(0); i < 500; i++ {
		a, b := p.User(i), q.User(i)
		if a.ID != b.ID || a.Vendor != b.Vendor || a.RAM != b.RAM ||
			a.InteractiveHours != b.InteractiveHours || a.AppMiB != b.AppMiB {
			t.Fatalf("User(%d) not pure: %+v vs %+v", i, a, b)
		}
		vendors[a.Vendor]++
		rams[a.RAM]++
	}
	// Out-of-order materialization must agree with in-order.
	if a, b := p.User(499), q.User(499); a.ID != b.ID || a.AppMiB != b.AppMiB {
		t.Fatal("out-of-order User(499) differs")
	}
	if len(vendors) < 8 {
		t.Errorf("only %d vendors drawn from 12 in 500 users", len(vendors))
	}
	if len(rams) < 5 {
		t.Errorf("only %d RAM tiers drawn from 6 in 500 users", len(rams))
	}
}

func TestSyntheticRunnerDeterministic(t *testing.T) {
	u := DefaultPopulation(10, 1).User(3)
	r := SyntheticRunner()
	a, b := r(u, UserSeed(1, u.ID)), r(u, UserSeed(1, u.ID))
	if a.MedianUtilization != b.MedianUtilization || len(a.Transitions) != len(b.Transitions) {
		t.Fatal("SyntheticRunner not deterministic in (user, seed)")
	}
	if len(a.Samples) != 0 {
		t.Fatal("SyntheticRunner must not fabricate 1 Hz samples")
	}
}
