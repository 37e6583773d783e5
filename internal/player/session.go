package player

import (
	"fmt"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/netem"
	"coalqoe/internal/proc"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// Config describes one streaming session.
type Config struct {
	// Device is the simulated phone the client runs on.
	Device *device.Device
	// Client selects the implementation profile (Firefox, Chrome,
	// ExoPlayer).
	Client ClientProfile
	// Manifest is the content to stream.
	Manifest *dash.Manifest
	// Link is the network path; nil uses the paper's non-bottleneck LAN.
	Link *netem.Link
	// Rung is the starting quality.
	Rung dash.Rung
	// SegmentTimeout bounds one segment-fetch attempt on the sim clock:
	// an attempt still undelivered at the timeout is abandoned and
	// retried after a capped exponential backoff (retryBackoff doubling
	// up to retryBackoffCap). Zero keeps the legacy wait-forever
	// behavior — appropriate for the paper's never-bottlenecked LAN,
	// required reading under injected outages (see internal/faults).
	SegmentTimeout time.Duration
	// Recover makes an lmkd kill survivable: the app relaunches after
	// the cold-start cost, re-fetches the manifest, and resumes from
	// the next segment boundary, up to maxRestarts times. false keeps
	// kills terminal (the seed behavior, and the paper's §4.3 reading).
	Recover bool
}

// BufferCapacity caps the playback buffer (§4.1). ABR controllers
// read it as the buffer bound their rules plan against.
const BufferCapacity = 60 * time.Second

// Client pipeline constants.
const (
	// startupBuffer is the media level at which playback starts: one
	// 4 s segment.
	startupBuffer = 4 * time.Second
	// lookahead is how many frames the decoder may work ahead of the
	// resync point. This is the pipeline's only latency cushion: stalls
	// longer than lookahead frame intervals drop frames, which is why
	// 60 FPS content suffers roughly twice as hard as 30 FPS under the
	// same memory pressure (§4.3).
	lookahead = 2
	// switchLatency is the delay for a quality switch to take effect
	// (codec reconfiguration + buffer splice).
	switchLatency = 2 * time.Second
	// retryBackoff is the first retry delay after an abandoned segment
	// attempt; it doubles per consecutive abandoned attempt up to
	// retryBackoffCap. Retries are unbounded: the backoff cap, not an
	// attempt budget, is what keeps a long outage survivable. All retry
	// timing runs on the sim clock (see LINTING.md on wall-clock-free
	// timers).
	retryBackoff    = 500 * time.Millisecond
	retryBackoffCap = 8 * time.Second
	// coldStart is the app relaunch delay after a kill — process fork,
	// runtime init, player setup — before the manifest re-fetch and
	// buffer refill even begin.
	coldStart = 2 * time.Second
	// maxRestarts caps recovery attempts under Config.Recover; the kill
	// after the last restart is terminal (Metrics.Crashed).
	maxRestarts = 3
)

// Session is a live (or finished) playback session.
type Session struct {
	cfg  Config
	dev  *device.Device
	link *netem.Link

	process *proc.Process
	decoder *sched.Thread // "MediaCodec"
	comp    *sched.Thread // client compositor
	sf      *sched.Thread // system SurfaceFlinger
	workers []*sched.Thread

	// Cached fault-target lists for pageFaultPump, rebuilt on every
	// (re)spawn: the pump runs 10×/s for the whole session, and
	// assembling these slices per tick was a measurable allocation
	// site. Order is fixed (decoder, compositor, [sf,] main, workers),
	// so cached draws replay exactly what per-tick construction drew.
	faultTargets []*sched.Thread
	chaseTargets []*sched.Thread

	rung  dash.Rung
	genre dash.Genre

	// playback state
	started        bool
	startedAt      time.Duration
	everStarted    bool
	done           bool
	crashed        bool
	crashedAt      time.Duration
	playFrame      int
	nextDecode     int
	lastDecode     int
	decodedQ       []int // decoded, not-yet-presented frame indices
	decoding       bool
	playedTime     time.Duration
	decodeWallEWMA time.Duration

	// crash-recovery state. epoch increments on every kill; callbacks
	// scheduled before a kill are wrapped by inEpoch and silently die,
	// so a restarted session never races its predecessor's pipeline.
	epoch         int
	recovering    bool
	recoverStart  time.Duration
	restarts      int
	timeToRecover time.Duration
	retries       int
	faultStalls   int
	faultProbe    func() bool
	workerTicks   []*simclock.Event

	// buffer state
	nextSeg        int
	downloadedTime time.Duration
	segSizes       []units.Bytes // in-buffer segment sizes (FIFO)
	consumedInSeg  time.Duration

	// metrics
	rendered, dropped int
	stalls            int
	stallTime         time.Duration
	fpsBins           map[int]int
	droppedBins       map[int]int
	pssSamples        []units.Bytes
	signals           map[proc.Level]int
	switches          []SwitchEvent
	throughput        units.BitsPerSecond

	// per-chunk trace: one record per fully played segment, appended as
	// the playhead crosses each segment boundary. The marks snapshot the
	// session counters at the previous boundary so each record carries
	// only its own chunk's stalls and frame outcomes. Pure recording —
	// no clock events, no RNG — so the event-order digest is unchanged.
	launchedAt        time.Duration
	chunks            []ChunkRecord
	chunkIndex        int
	chunkStallMark    time.Duration
	chunkRenderedMark int
	chunkDroppedMark  int

	onSignal func(proc.Level)
	onFinish []func()
}

// SwitchEvent records a quality change.
type SwitchEvent struct {
	At   time.Duration
	From dash.Rung
	To   dash.Rung
}

// ChunkRecord is the per-segment row of the player trace: which rung
// the chunk played at, how long the playhead stalled while it played,
// and how its frames fared. Index is the media segment index, so a
// crash-recovered session that skips a partial segment leaves a gap
// rather than renumbering. The QoE objective (internal/qoe) folds a
// session's records into a per-chunk score.
type ChunkRecord struct {
	Index    int
	Rung     dash.Rung
	Duration time.Duration
	// Rebuffer is stall time accrued while this chunk was playing.
	Rebuffer time.Duration
	// Rendered/Dropped count this chunk's presented frame outcomes.
	Rendered int
	Dropped  int
}

// Start launches a session on the device. Playback begins once the
// startup buffer fills; run the device clock to make progress.
func Start(cfg Config) *Session {
	d := cfg.Device
	link := cfg.Link
	if link == nil {
		link = netem.LAN(d.Clock)
	}
	s := &Session{
		cfg:         cfg,
		dev:         d,
		link:        link,
		rung:        cfg.Rung,
		genre:       cfg.Manifest.Video.Genre,
		lastDecode:  -1,
		fpsBins:     make(map[int]int),
		droppedBins: make(map[int]int),
		signals:     make(map[proc.Level]int),
		launchedAt:  d.Clock.Now(),
	}
	s.sf = d.SurfaceFlinger
	s.spawnProcess()
	if d.Telem != nil {
		s.instrument(d.Telem)
	}

	s.download()
	s.scheduleGC()
	d.Clock.Every(time.Second, s.samplePSS)
	d.Clock.Every(500*time.Millisecond, s.memoryChurn)
	d.Clock.Every(100*time.Millisecond, s.pageFaultPump)
	return s
}

// manifestBytes is the size of the manifest document a recovering
// client re-fetches before it can resume downloads.
const manifestBytes = 32 * units.KiB

// spawnProcess starts (or, after a kill, restarts) the client process
// and binds the session's thread handles to it. A restart gets fresh
// threads — the scheduler never resurrects dead ones — which is why
// every handle is rebound here rather than cached by the pipeline.
func (s *Session) spawnProcess() {
	cfg := s.cfg
	d := s.dev
	s.process = d.Table.Start(proc.Spec{
		Name:        cfg.Client.Name,
		Adj:         proc.AdjForeground,
		AnonBytes:   cfg.Client.BasePSS + cfg.Client.VideoHeap(s.rung),
		FileWSBytes: cfg.Client.FileWS,
		HotAnonFrac: cfg.Client.HotAnonFrac,
		RampTime:    6 * time.Second,
		ExtraThreads: append([]string{
			"MediaCodec", "Compositor",
		}, workerNames(cfg.Client.Workers)...),
		OnTrim: func(l proc.Level) {
			s.signals[l]++
			if s.onSignal != nil {
				s.onSignal(l)
			}
		},
		OnKilled: func(string) { s.onKilled() },
	})
	s.decoder = s.process.Thread("MediaCodec")
	s.comp = s.process.Thread("Compositor")
	s.decodeWallEWMA = s.estimateDecodeWall()
	s.workers = nil
	s.startWorkers()
	s.faultTargets = append(s.faultTargets[:0], s.decoder, s.comp, s.sf, s.process.Main())
	s.faultTargets = append(s.faultTargets, s.workers...)
	s.chaseTargets = append(s.chaseTargets[:0], s.decoder, s.comp, s.process.Main())
}

// inEpoch wraps fn so it becomes a no-op once the session's process has
// been killed (terminally or into recovery) after scheduling: every
// clock callback belonging to the playback pipeline goes through this,
// so stale deliveries, vsyncs, timeouts and GC pauses from before a
// kill cannot leak into the restarted session.
func (s *Session) inEpoch(fn func()) func() {
	e := s.epoch
	return func() {
		if s.epoch == e {
			fn()
		}
	}
}

// onKilled handles the lmkd kill: terminal crash (the seed behavior),
// or — under Config.Recover with restarts to spare — transition into
// recovery: app relaunch after the cold-start cost, manifest re-fetch,
// resume from the next segment boundary.
func (s *Session) onKilled() {
	now := s.dev.Clock.Now()
	s.epoch++
	s.decoding = false
	s.decodedQ = nil
	for _, ev := range s.workerTicks {
		ev.Cancel()
	}
	s.workerTicks = nil

	// The dead process's buffer is gone; a restart would resume at the
	// next segment boundary (the partial segment at the playhead is
	// re-fetched media we choose not to replay — it is simply lost).
	video := s.cfg.Manifest.Video
	segDur := video.SegmentDuration
	seg := int(s.playedTime / segDur)
	if s.playedTime%segDur != 0 {
		seg++
	}
	resume := time.Duration(seg) * segDur

	if !s.cfg.Recover || s.restarts >= maxRestarts || resume >= video.Duration {
		// No recovery, out of restarts, or killed with less than one
		// segment left (nothing meaningful to resume into): terminal.
		s.crashed = true
		s.crashedAt = now
		for _, fn := range s.onFinish {
			fn()
		}
		return
	}
	s.restarts++
	s.recovering = true
	s.recoverStart = now
	s.started = false
	s.playedTime = resume
	s.downloadedTime = resume
	s.segSizes = nil
	s.consumedInSeg = 0
	s.nextSeg = seg
	s.nextDecode = s.playFrame
	s.lastDecode = s.playFrame - 1
	// The partial segment at the playhead is lost, not replayed: the
	// chunk trace resumes at the next boundary's media index and the
	// marks resync so the lost chunk's stalls/frames don't leak into
	// the first post-recovery record.
	s.chunkIndex = seg
	s.chunkStallMark = s.stallTime
	s.chunkRenderedMark = s.rendered
	s.chunkDroppedMark = s.dropped
	s.dev.Clock.Schedule(coldStart, s.inEpoch(s.respawn))
}

// respawn relaunches the client after the cold-start delay: new
// process, manifest re-fetch over the link, then the download loop
// refills the buffer and begin() resumes playback.
func (s *Session) respawn() {
	if !s.Active() {
		return
	}
	s.spawnProcess()
	s.link.Transfer(manifestBytes, s.inEpoch(func() {
		s.process.Main().Enqueue(s.cfg.Client.DemuxCost, s.inEpoch(s.download))
	}))
	s.scheduleGC()
}

// begin starts — or, after a crash recovery, resumes — presentation
// once the startup buffer is full.
func (s *Session) begin() {
	now := s.dev.Clock.Now()
	s.started = true
	if !s.everStarted {
		s.everStarted = true
		s.startedAt = now
	}
	if s.recovering {
		s.recovering = false
		s.timeToRecover += now - s.recoverStart
	}
	s.scheduleVsync(s.frameInterval())
}

func (s *Session) scheduleVsync(d time.Duration) {
	s.dev.Clock.Schedule(d, s.inEpoch(s.vsync))
}

// SetFaultProbe installs a predicate consulted at each stall tick:
// stalls that begin while it reports true are counted separately as
// Metrics.FaultStalls (see internal/faults for the injector that
// supplies it).
func (s *Session) SetFaultProbe(fn func() bool) { s.faultProbe = fn }

// Recovering reports whether the session is between an lmkd kill and
// the post-restart playback resume.
func (s *Session) Recovering() bool { return s.recovering }

// Restarts returns how many crash recoveries the session has survived.
func (s *Session) Restarts() int { return s.restarts }

// instrument registers the client-side QoE series: buffer level, the
// current rung (bitrate and FPS), stall state, frame counters, and
// the client's PSS — the per-session signals Figures 16–17 plot over
// time. Everything is a read-only sample func: the playback hot paths
// (vsync, decode chain) carry no instrumentation cost. A respawned
// session on the same device re-binds the series.
func (s *Session) instrument(reg *telemetry.Registry) {
	reg.SampleFunc("player.buffer_ms", func() float64 {
		return float64(s.BufferLevel() / time.Millisecond)
	})
	reg.SampleFunc("player.rung_bps", func() float64 { return float64(s.rung.Bitrate) })
	reg.SampleFunc("player.rung_fps", func() float64 { return float64(s.rung.FPS) })
	reg.SampleFunc("player.stalled", func() float64 {
		if s.started && s.Active() && s.BufferLevel() <= 0 {
			return 1
		}
		return 0
	})
	reg.SampleFunc("player.frames_rendered", func() float64 { return float64(s.rendered) })
	reg.SampleFunc("player.frames_dropped", func() float64 { return float64(s.dropped) })
	reg.SampleFunc("player.stall_ms", func() float64 {
		return float64(s.stallTime / time.Millisecond)
	})
	reg.SampleFunc("player.crashed", func() float64 {
		if s.crashed {
			return 1
		}
		return 0
	})
	reg.SampleFunc("player.pss_bytes", func() float64 {
		if s.process.Dead() {
			return 0
		}
		return float64(s.process.PSS())
	})
	reg.SampleFunc("player.restarts", func() float64 { return float64(s.restarts) })
	reg.SampleFunc("player.retries", func() float64 { return float64(s.retries) })
	reg.SampleFunc("player.recovering", func() float64 {
		if s.recovering {
			return 1
		}
		return 0
	})
	reg.SampleFunc("player.time_to_recover_ms", func() float64 {
		ttr := s.timeToRecover
		if s.recovering {
			ttr += s.dev.Clock.Now() - s.recoverStart
		}
		return float64(ttr / time.Millisecond)
	})
	reg.SampleFunc("player.fault_stalls", func() float64 { return float64(s.faultStalls) })
}

// OnSignal registers a callback for onTrimMemory deliveries to the
// client — the hook ABR algorithms use (§6).
func (s *Session) OnSignal(fn func(proc.Level)) { s.onSignal = fn }

// OnFinish registers a callback invoked when playback completes or the
// client crashes.
func (s *Session) OnFinish(fn func()) { s.onFinish = append(s.onFinish, fn) }

// Rung returns the current quality.
func (s *Session) Rung() dash.Rung { return s.rung }

// BufferLevel returns the media time buffered ahead of the playhead.
func (s *Session) BufferLevel() time.Duration { return s.downloadedTime - s.playedTime }

// Throughput returns the last measured download throughput.
func (s *Session) Throughput() units.BitsPerSecond { return s.throughput }

// RecentDropRate returns the percentage of frames dropped over the
// last window seconds of playback — the client-side QoE signal an ABR
// algorithm can observe.
func (s *Session) RecentDropRate(window int) float64 {
	if !s.started {
		return 0
	}
	now := int((s.dev.Clock.Now() - s.startedAt) / time.Second)
	rendered, dropped := 0, 0
	for sec := now - window; sec <= now; sec++ {
		rendered += s.fpsBins[sec]
		dropped += s.droppedBins[sec]
	}
	if rendered+dropped == 0 {
		return 0
	}
	return 100 * float64(dropped) / float64(rendered+dropped)
}

// Manifest returns the session's manifest.
func (s *Session) Manifest() *dash.Manifest { return s.cfg.Manifest }

// Active reports whether the session is still playing.
func (s *Session) Active() bool { return !s.done && !s.crashed }

// Crashed reports whether lmkd killed the client.
func (s *Session) Crashed() bool { return s.crashed }

// frameInterval is the current presentation interval.
func (s *Session) frameInterval() time.Duration {
	return time.Duration(float64(time.Second) / float64(s.rung.FPS))
}

// download runs the fetch loop: fill the buffer to capacity, one
// segment at a time, over the link.
func (s *Session) download() {
	if !s.Active() {
		return
	}
	video := s.cfg.Manifest.Video
	if s.nextSeg >= video.Segments() {
		return
	}
	if s.BufferLevel() >= BufferCapacity {
		s.dev.Clock.Schedule(500*time.Millisecond, s.inEpoch(s.download))
		return
	}
	seg := s.nextSeg
	s.nextSeg++
	s.fetchSegment(seg, video.SegmentBytes(s.rung, seg), 0)
}

// backoff returns the delay before retrying after abandoned attempt
// number attempt (0-based): capped exponential, retryBackoff doubling
// up to retryBackoffCap.
func backoff(attempt int) time.Duration {
	b := retryBackoff
	for i := 0; i < attempt && b < retryBackoffCap; i++ {
		b *= 2
	}
	if b > retryBackoffCap {
		b = retryBackoffCap
	}
	return b
}

// fetchSegment transfers one segment attempt. With SegmentTimeout set,
// an undelivered attempt is abandoned at the timeout and retried after
// the capped exponential backoff — all on the sim clock. A late
// delivery of an abandoned attempt is ignored (the settled flag is
// per-attempt; the retry owns the segment from then on).
func (s *Session) fetchSegment(seg int, bytes units.Bytes, attempt int) {
	video := s.cfg.Manifest.Video
	reqStart := s.dev.Clock.Now()
	settled := false
	var timeout *simclock.Event
	s.link.Transfer(bytes, s.inEpoch(func() {
		if settled {
			return
		}
		settled = true
		timeout.Cancel()
		if dur := s.dev.Clock.Now() - reqStart; dur > 0 {
			s.throughput = units.BitsPerSecond(float64(bytes*8) / dur.Seconds())
		}
		// Demux on the main thread, then the media lands in the buffer.
		s.process.Main().Enqueue(s.cfg.Client.DemuxCost, s.inEpoch(func() {
			s.downloadedTime += video.SegmentDuration
			s.segSizes = append(s.segSizes, bytes)
			s.process.GrowAnon(bytes, nil)
			if !s.started && s.BufferLevel() >= startupBuffer {
				s.begin()
			}
			s.kickDecoder()
			s.download()
		}))
	}))
	if s.cfg.SegmentTimeout > 0 {
		timeout = s.dev.Clock.Schedule(s.cfg.SegmentTimeout, s.inEpoch(func() {
			if settled {
				return
			}
			settled = true
			s.retries++
			s.dev.Clock.Schedule(backoff(attempt), s.inEpoch(func() {
				s.fetchSegment(seg, bytes, attempt+1)
			}))
		}))
	}
}

// vsync presents one frame per interval: rendered if the decoder got it
// done in time, dropped otherwise — the skip-to-maintain-1× behavior.
func (s *Session) vsync() {
	if !s.Active() || !s.started {
		// !started covers recovery: the kill bumped the epoch, so a
		// stale vsync cannot reach here, and the guard keeps the
		// restarted session to a single vsync loop.
		return
	}
	video := s.cfg.Manifest.Video
	if s.playedTime >= video.Duration {
		s.finish()
		return
	}
	if s.BufferLevel() <= 0 {
		// Rebuffering: the playhead pauses; no frames drop.
		s.stalls++
		s.stallTime += 100 * time.Millisecond
		if s.faultProbe != nil && s.faultProbe() {
			s.faultStalls++
		}
		s.scheduleVsync(100 * time.Millisecond)
		return
	}
	interval := s.frameInterval()
	// Discard decoded frames whose slot already passed (decoded late).
	for len(s.decodedQ) > 0 && s.decodedQ[0] < s.playFrame {
		s.decodedQ = s.decodedQ[1:]
	}
	if len(s.decodedQ) > 0 && s.decodedQ[0] == s.playFrame {
		s.decodedQ = s.decodedQ[1:]
		s.rendered++
		sec := int((s.dev.Clock.Now() - s.startedAt) / time.Second)
		s.fpsBins[sec]++
	} else {
		s.dropped++
		sec := int((s.dev.Clock.Now() - s.startedAt) / time.Second)
		s.droppedBins[sec]++
	}
	s.playFrame++
	s.playedTime += interval
	s.consumeBuffer(interval)
	s.kickDecoder()
	s.scheduleVsync(interval)
}

// consumeBuffer releases segment memory as media plays out and closes
// out the per-chunk trace record at each segment boundary.
func (s *Session) consumeBuffer(d time.Duration) {
	s.consumedInSeg += d
	segDur := s.cfg.Manifest.Video.SegmentDuration
	for s.consumedInSeg >= segDur && len(s.segSizes) > 0 {
		s.consumedInSeg -= segDur
		s.process.ShrinkAnon(s.segSizes[0])
		s.segSizes = s.segSizes[1:]
		s.recordChunk(segDur)
	}
}

// recordChunk appends the trace record for the segment that just
// finished playing, carrying the deltas since the previous boundary.
func (s *Session) recordChunk(segDur time.Duration) {
	s.chunks = append(s.chunks, ChunkRecord{
		Index:    s.chunkIndex,
		Rung:     s.rung,
		Duration: segDur,
		Rebuffer: s.stallTime - s.chunkStallMark,
		Rendered: s.rendered - s.chunkRenderedMark,
		Dropped:  s.dropped - s.chunkDroppedMark,
	})
	s.chunkIndex++
	s.chunkStallMark = s.stallTime
	s.chunkRenderedMark = s.rendered
	s.chunkDroppedMark = s.dropped
}

// kickDecoder advances the decode pipeline.
func (s *Session) kickDecoder() {
	if s.decoding || !s.Active() {
		return
	}
	// Skip frames whose deadline is no longer reachable: the decoder
	// resyncs to the earliest frame it can still finish on time,
	// maintaining 1× rate (§4.1). Everything in between is dropped.
	// The reachability estimate is the measured wall-clock decode time
	// (EWMA), which under memory pressure includes preemption and
	// fault waits.
	minLead := 1 + int(s.decodeWallEWMA/s.frameInterval())
	// The decode-ahead window is bounded by the codec's frame pool: a
	// stalled pipeline cannot buy arbitrary slack by skipping ahead.
	// The cap leaves room for genuinely CPU-bound decoding (where the
	// lead legitimately spans several intervals) plus two pool slots.
	cpuWall := s.estimateDecodeWall()
	cap := 2 + int(2*cpuWall/s.frameInterval())
	if minLead > cap {
		minLead = cap
	}
	if s.started && s.nextDecode < s.playFrame+minLead {
		s.nextDecode = s.playFrame + minLead
	}
	if s.nextDecode > s.playFrame+minLead+lookahead {
		return // far enough ahead; vsync re-kicks
	}
	// The frame's media must be in the buffer.
	frameTime := s.playedTime + time.Duration(s.nextDecode-s.playFrame)*s.frameInterval()
	if frameTime >= s.downloadedTime || frameTime >= s.cfg.Manifest.Video.Duration {
		return // waiting for download or at end; download re-kicks
	}
	s.decoding = true
	frame := s.nextDecode
	s.nextDecode++

	cost := s.decodeCost(frame)
	started := s.dev.Clock.Now()
	epoch := len(s.switches)
	se := s.epoch
	s.decoder.Enqueue(cost, func() {
		// Decode done: the frame moves down the render chain while the
		// decoder starts the next one. Composition and SurfaceFlinger
		// each queue on their own threads; under contention the chain
		// latency is what misses vsync deadlines.
		s.decoding = false
		s.kickDecoder()
		compCost := s.cfg.Client.ComposeCost/2 + time.Duration(0.4*float64(cost))
		s.comp.Enqueue(compCost, func() {
			// Frame submission goes through the main/UI thread — the
			// thread that direct reclaim and GC stall ("an extra I/O
			// wait in any thread, including the foreground
			// application's main UI thread", §2) — then composition.
			s.process.Main().Enqueue(500*time.Microsecond, func() {
				s.sf.Enqueue(s.cfg.Client.ComposeCost, func() {
					if len(s.switches) != epoch || s.epoch != se {
						// Rung switched — or the process was killed —
						// while in flight; frame discarded. The kill
						// check matters because SurfaceFlinger is a
						// system thread that outlives the client.
						return
					}
					wall := s.dev.Clock.Now() - started
					s.decodeWallEWMA = time.Duration(0.8*float64(s.decodeWallEWMA) + 0.2*float64(wall))
					if frame > s.lastDecode {
						s.lastDecode = frame
						s.decodedQ = append(s.decodedQ, frame)
					}
				})
			})
		})
	})
}

// estimateDecodeWall seeds the wall-clock decode estimate: the
// reference cost on the device's fastest core.
func (s *Session) estimateDecodeWall() time.Duration {
	maxSpeed := 1.0
	for _, sp := range s.dev.Profile.CoreSpeeds {
		if sp > maxSpeed {
			maxSpeed = sp
		}
	}
	chain := 1.4*float64(s.cfg.Client.DecodeCost(s.rung, s.genre)) + 1.5*float64(s.cfg.Client.ComposeCost)
	return time.Duration(chain / maxSpeed)
}

// decodeCost returns the jittered decode cost for one frame: a base
// per-pixel cost, scaled by genre complexity, with periodic keyframe
// spikes.
func (s *Session) decodeCost(frame int) time.Duration {
	base := s.cfg.Client.DecodeCost(s.rung, s.genre)
	jitter := 0.85 + 0.3*s.dev.Clock.Rand().Float64()
	// Keyframes every ~2 seconds cost ~2.2x.
	if frame%(2*s.rung.FPS) == 0 {
		jitter *= 2.2
	}
	return time.Duration(float64(base) * jitter)
}

// pageFaultPump injects the memory-pressure I/O the paper traces to
// mmcqd (§5). It runs on a fixed cadence: when the client's file
// working set has been evicted, the pipeline refaults pages from
// storage (blocking the decoder in D state); when its heap was
// compressed, it swaps pages back in from zRAM (costing CPU). The
// volume scales with the cache deficit, not the frame rate — an active
// client sweeps its working set per unit time.
func (s *Session) pageFaultPump() {
	if !s.Active() || !s.started {
		return
	}
	const interval = 0.1 // seconds per pump tick
	m := s.dev.Mem
	rng := s.dev.Clock.Rand()
	if deficit := m.RefaultDeficit(); deficit > 0 {
		expected := s.cfg.Client.FaultsPerSec * deficit * interval
		n := int(expected)
		if rng.Float64() < expected-float64(n) {
			n++
		}
		// Faults hit every thread that touches evicted pages — "any
		// thread, including the foreground application's main UI
		// thread" (§2) — so they stall the whole render chain, not
		// just the decoder. Faults are demand paging: a thread that is
		// already blocked cannot raise more of them, which is the
		// natural flow control that keeps the disk queue bounded.
		targets := s.faultTargets
		for i := 0; i < n; i++ {
			th := targets[rng.Intn(len(targets))]
			if th.QueueLen() > 3 {
				continue
			}
			pages := units.Pages(8 + rng.Intn(24))
			barrier := th.EnqueueIOBarrier()
			s.dev.Disk.Read(pages, func() {
				// The refaulted pages re-enter the cache, sustaining
				// pressure — the thrashing loop of §2.
				m.FileRead(pages)
				barrier()
			})
		}
	}
	if deficit := m.RefaultDeficit(); deficit > 0 {
		// Serial dependent-fault bursts: each fault gates the next, so
		// one cold pointer chase freezes its thread for tens of ms.
		expected := s.cfg.Client.StallBurstsPerSec * deficit * interval
		if rng.Float64() < expected {
			targets := s.chaseTargets
			th := targets[rng.Intn(len(targets))]
			if th.QueueLen() > 3 {
				return
			}
			depth := 8 + rng.Intn(20)
			for i := 0; i < depth; i++ {
				pages := units.Pages(2 + rng.Intn(6))
				barrier := th.EnqueueIOBarrier()
				s.dev.Disk.Read(pages, func() {
					m.FileRead(pages)
					barrier()
				})
				th.Enqueue(50*time.Microsecond, nil)
			}
		}
	}
	if zfrac := m.AnonCompressedFraction(); zfrac > 0 {
		// Touching compressed heap pages costs decompression CPU.
		if rng.Float64() < zfrac {
			pages := units.Pages(8 + rng.Intn(16))
			s.decoder.Enqueue(time.Duration(pages)*8*time.Microsecond, func() {
				m.SwapInAnon(pages)
			})
		}
	}
}

// workerNames generates thread names for the client's worker pool.
func workerNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Worker#%d", i)
	}
	return out
}

// startWorkers runs the client's auxiliary threads (JS, layout, audio,
// network): each periodically burns CPU at its duty cycle. Under memory
// pressure these are the extra runnable threads that contend with the
// decode pipeline (Table 4's Runnable growth).
func (s *Session) startWorkers() {
	const period = 100 * time.Millisecond
	burst := time.Duration(s.cfg.Client.WorkerDuty * float64(period))
	for i := 0; i < s.cfg.Client.Workers; i++ {
		w := s.process.Thread(fmt.Sprintf("Worker#%d", i))
		if w == nil {
			continue
		}
		s.workers = append(s.workers, w)
		// Desynchronize workers across the period. The tick events are
		// retained so onKilled can cancel them: the restarted process
		// gets its own workers, and the dead generation must not keep
		// drawing from the RNG on behalf of dead threads.
		offset := time.Duration(s.dev.Clock.Rand().Int63n(int64(period)))
		s.dev.Clock.Schedule(offset, s.inEpoch(func() {
			ev := s.dev.Clock.Every(period, func() {
				if !s.Active() {
					return
				}
				jitter := 0.7 + 0.6*s.dev.Clock.Rand().Float64()
				w.Enqueue(time.Duration(float64(burst)*jitter), nil)
			})
			s.workerTicks = append(s.workerTicks, ev)
		}))
	}
}

// scheduleGC models the client's periodic garbage-collection pauses,
// which stall the pipeline for tens of milliseconds every few seconds.
func (s *Session) scheduleGC() {
	if !s.Active() {
		return
	}
	gap := 2*time.Second + time.Duration(s.dev.Clock.Rand().Intn(2500))*time.Millisecond
	s.dev.Clock.Schedule(gap, s.inEpoch(func() {
		if !s.Active() {
			return
		}
		// Browser GC pauses on low-memory devices run 40–140ms and
		// stall the media pipeline with them. The chain is epoch-bound:
		// a kill ends it, and respawn starts a fresh one, so a
		// recovered session never runs two GC loops.
		pause := time.Duration(40+s.dev.Clock.Rand().Intn(100)) * time.Millisecond
		s.decoder.Enqueue(pause, nil)
		s.process.Main().Enqueue(pause/2, nil)
		s.scheduleGC()
	}))
}

// memoryChurn models ongoing allocator activity (JS objects, media
// buffers): small allocations that, under pressure, push the main
// thread into direct reclaim. It also dirties a little page cache
// (cookies, databases, media cache) — the pages whose writeback later
// occupies mmcqd when reclaim flushes them (§2).
func (s *Session) memoryChurn() {
	if !s.Active() || s.recovering {
		// A killed-but-restarting app allocates nothing and dirties no
		// cache until the new process is up and downloading again.
		return
	}
	const churn = 3 * units.MiB
	// Pin the current process: by the time the shrink fires, a crash
	// recovery may have re-pointed s.process at a fresh one, and the
	// churn must not be un-accounted from the wrong generation.
	p := s.process
	p.GrowAnon(churn, func() {
		s.dev.Clock.Schedule(time.Second, func() {
			if !p.Dead() {
				p.ShrinkAnon(churn)
			}
		})
	})
	dirty := units.PagesOf(512 * units.KiB)
	s.dev.Mem.FileRead(dirty)
	s.dev.Mem.MarkDirty(dirty)
}

func (s *Session) samplePSS() {
	if s.process.Dead() {
		return
	}
	s.pssSamples = append(s.pssSamples, s.process.PSS())
}

// SwitchRung requests a quality change; it takes effect after the
// configured switch latency (codec reconfiguration), briefly resetting
// the decode pipeline — visible as a short dip, as in Figure 17.
func (s *Session) SwitchRung(to dash.Rung) {
	if !s.Active() || to == s.rung {
		return
	}
	s.dev.Clock.Schedule(switchLatency, s.inEpoch(func() {
		if !s.Active() || s.rung == to {
			return
		}
		from := s.rung
		s.switches = append(s.switches, SwitchEvent{At: s.dev.Clock.Now(), From: from, To: to})
		s.rung = to
		// Adjust the video heap to the new rung.
		oldHeap, newHeap := s.cfg.Client.VideoHeap(from), s.cfg.Client.VideoHeap(to)
		if newHeap > oldHeap {
			s.process.GrowAnon(newHeap-oldHeap, nil)
		} else {
			s.process.ShrinkAnon(oldHeap - newHeap)
		}
		// Codec reconfiguration stalls the decoder and resets lookahead.
		s.lastDecode = s.playFrame - 1
		s.nextDecode = s.playFrame
		s.decodedQ = nil
		s.decodeWallEWMA = s.estimateDecodeWall()
		s.decoder.Enqueue(30*time.Millisecond, func() {
			s.kickDecoder()
		})
	}))
}

func (s *Session) finish() {
	if s.done {
		return
	}
	s.done = true
	for _, fn := range s.onFinish {
		fn()
	}
}

// String summarizes the session.
func (s *Session) String() string {
	return fmt.Sprintf("session{%s %s on %s: rendered=%d dropped=%d crashed=%v}",
		s.cfg.Client.Name, s.rung, s.dev.Profile.Name, s.rendered, s.dropped, s.crashed)
}
