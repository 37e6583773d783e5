package study

import (
	"errors"
	"os"
	"testing"
)

// haltedFleet halts an 8-user, one-shard fleet after two users. It
// returns the configuration that resumes the run and the shard-0000
// checkpoint the halt wrote.
func haltedFleet(tb testing.TB) (FleetConfig, []byte) {
	tb.Helper()
	cfg := FleetConfig{Users: 8, Seed: 3, Shards: 1, Workers: 1,
		CheckpointDir: tb.TempDir(), HaltAfter: 2, Runner: SyntheticRunner()}
	if _, _, err := RunFleetStream(cfg); !errors.Is(err, ErrHalted) {
		tb.Fatalf("halted run: %v", err)
	}
	data, err := os.ReadFile(checkpointPath(cfg.CheckpointDir, 0))
	if err != nil {
		tb.Fatal(err)
	}
	cfg.HaltAfter = 0
	cfg.Resume = true
	return cfg, data
}

// resumeWith resumes cfg from a fresh directory whose only checkpoint
// is data, as shard 0.
func resumeWith(t *testing.T, cfg FleetConfig, data []byte) (*FleetAggregate, FleetRunStats, error) {
	t.Helper()
	cfg.CheckpointDir = t.TempDir()
	if err := os.WriteFile(checkpointPath(cfg.CheckpointDir, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return RunFleetStream(cfg)
}

// FuzzResumeCheckpoint resumes a halted fleet with its checkpoint file
// replaced by arbitrary bytes. A resume must never panic. One that
// succeeds must count every user once and render every figure.
func FuzzResumeCheckpoint(f *testing.F) {
	cfg, data := haltedFleet(f)
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		agg, _, err := resumeWith(t, cfg, data)
		if err != nil {
			return
		}
		if agg.Recruited != cfg.Users {
			t.Fatalf("Recruited = %d, want %d", agg.Recruited, cfg.Users)
		}
		agg.Fig1Heatmap()
		agg.UtilCDFAt(0.6)
		agg.Fig3Scatter()
		agg.Fig4TimeShares()
		agg.Fig5TopDevices(agg.TopK)
		agg.TopSummaries(agg.TopK)
		agg.Fig6Transitions()
		agg.Table1()
	})
}
