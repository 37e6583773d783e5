package main

import (
	"fmt"
	"time"

	"coalqoe/internal/loadgen"
)

// overloadWorkload drives loadgen.RunSim: each op is one virtual-time
// run of a governed fleet under a retry storm, protections on.
type overloadWorkload struct {
	seed int64
	ops  int
	cfgs []loadgen.SimConfig
	fp   *Fingerprint
	l    overloadLayers
}

// overloadLayers accumulates the traced pass's per-layer figures.
type overloadLayers struct {
	opTime                                    time.Duration
	attempts, requests, served, doomed, tailB int64
	shed, queued, brownout                    int64
}

const overloadWarmup = 10 // sims played in each set-up

func newOverloadWorkload(seed int64, ops int) *overloadWorkload {
	return &overloadWorkload{seed: seed, ops: ops}
}

func (w *overloadWorkload) Ops() int { return len(w.cfgs) }

// Setup builds the op configs, then runs a fixed set of warm-up sims.
func (w *overloadWorkload) Setup() error {
	w.cfgs = SimConfigs(w.seed, w.ops)
	w.fp = newFingerprint()
	for i := 0; i < overloadWarmup; i++ {
		if _, err := w.run(simConfig(lane(0, "overload-warm", i))); err != nil {
			return fmt.Errorf("warm-up sim: %w", err)
		}
	}
	w.fp = newFingerprint()
	w.l = overloadLayers{}
	return nil
}

// run executes one sim and checks that its request accounting closes.
func (w *overloadWorkload) run(cfg loadgen.SimConfig) (*loadgen.SimResult, error) {
	res, err := loadgen.RunSim(cfg)
	if err != nil {
		return nil, err
	}
	var perRung, byClass int64
	for _, n := range res.PerRung {
		perRung += n
	}
	for _, n := range res.ErrorsByClass {
		byClass += n
	}
	gs := res.Governor
	switch {
	case res.Requests != res.Served+res.Errors:
		return nil, fmt.Errorf("requests %d != served %d + errors %d", res.Requests, res.Served, res.Errors)
	case perRung != res.Served:
		return nil, fmt.Errorf("per-rung successes %d != served %d", perRung, res.Served)
	case byClass != res.Errors:
		return nil, fmt.Errorf("errors by class %d != errors %d", byClass, res.Errors)
	case gs.Admitted+gs.Granted != res.Served+res.Doomed:
		return nil, fmt.Errorf("services started %d != served %d + doomed %d",
			gs.Admitted+gs.Granted, res.Served, res.Doomed)
	case res.Attempts < res.Served+res.Doomed:
		return nil, fmt.Errorf("attempts %d < services %d", res.Attempts, res.Served+res.Doomed)
	}
	w.fp.Add(res.Requests, res.Errors, res.Bytes, res.Attempts, res.Doomed, res.Served,
		res.TailRequests, res.TailErrors, res.TailBytes,
		gs.Admitted, gs.Granted, gs.Queued, gs.Shed, gs.Throttled, gs.Canceled,
		gs.BrownoutEntered, gs.BrownoutExited, gs.Demoted)
	for _, q := range []float64{0.5, 0.99} {
		w.fp.AddFloat(res.Latency.Quantile(q))
	}
	return res, nil
}

func (w *overloadWorkload) Op(i int, tr *Tracer) error {
	if tr == nil {
		_, err := w.run(w.cfgs[i])
		return err
	}
	t0 := time.Now()
	res, err := w.run(w.cfgs[i])
	t1 := time.Now()
	root := tr.Add(i, -1, "op", t0, t1)
	tr.Add(i, root, "loadgen.runsim", t0, t1)
	if err != nil {
		return err
	}
	l := &w.l
	l.opTime += t1.Sub(t0)
	l.attempts += res.Attempts
	l.requests += res.Requests
	l.served += res.Served
	l.doomed += res.Doomed
	l.tailB += res.TailBytes
	l.shed += res.Governor.Shed + res.Governor.Throttled
	l.queued += res.Governor.Queued
	l.brownout += res.Governor.BrownoutEntered
	return nil
}

func (w *overloadWorkload) Check() error { return nil }

func (w *overloadWorkload) Fingerprint() uint64 { return w.fp.Sum() }

func (w *overloadWorkload) Layers() (map[string]float64, error) {
	l := w.l
	if l.attempts == 0 || l.requests == 0 {
		return nil, fmt.Errorf("no traced attempts")
	}
	services := l.served + l.doomed
	m := map[string]float64{
		"loadgen.host_us_per_attempt": us(l.opTime) / float64(l.attempts),
		"loadgen.attempts_per_req":    float64(l.attempts) / float64(l.requests),
		"loadgen.tail_goodput_mb":     float64(l.tailB) / 1e6 / float64(len(w.cfgs)),
		"cdn.shed":                    float64(l.shed),
		"cdn.queued":                  float64(l.queued),
		"cdn.brownout":                float64(l.brownout),
	}
	if services > 0 {
		m["loadgen.doomed_frac"] = float64(l.doomed) / float64(services)
	}
	return m, nil
}
