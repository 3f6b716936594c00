package mlink

// Benchmark harness: one benchmark per figure of the paper (see DESIGN.md's
// per-experiment index) plus ablations of the design choices DESIGN.md
// calls out. Each benchmark runs its experiment driver and reports the
// headline quantity of the corresponding figure via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every reported result. Full
// tables are printed by cmd/mlink-exp.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/engine"
	"mlink/internal/eval"
	"mlink/internal/experiments"
	"mlink/internal/fleet"
	"mlink/internal/geom"
	"mlink/internal/music"
	"mlink/internal/propagation"
	"mlink/internal/sanitize"
	"mlink/internal/scenario"
	"mlink/internal/serve"
	"mlink/internal/supervise"
)

// Shared heavyweight fixtures, built once per bench binary.
var (
	charOnce sync.Once
	charRes  *experiments.CharacterizationResult
	charErr  error

	campOnce sync.Once
	campRes  *experiments.Campaign
	campErr  error
)

func characterization(b *testing.B) *experiments.CharacterizationResult {
	b.Helper()
	charOnce.Do(func() {
		charRes, charErr = experiments.RunCharacterization(200, 10, 1)
	})
	if charErr != nil {
		b.Fatal(charErr)
	}
	return charRes
}

func campaign(b *testing.B) *experiments.Campaign {
	b.Helper()
	campOnce.Do(func() {
		cfg := experiments.DefaultCampaignConfig()
		campRes, campErr = experiments.RunCampaign(cfg)
	})
	if campErr != nil {
		b.Fatal(campErr)
	}
	return campRes
}

func BenchmarkFig2aRSSChangeCDF(b *testing.B) {
	c := characterization(b)
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2a(c, 25)
		if err != nil {
			b.Fatal(err)
		}
		frac = r.FracNegative
	}
	b.ReportMetric(frac, "fracRSSdrop")
}

func BenchmarkFig2bCrossingTrace(b *testing.B) {
	var divergent float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2b(400, 1)
		if err != nil {
			b.Fatal(err)
		}
		divergent = float64(r.DivergentPackets)
	}
	b.ReportMetric(divergent, "divergentPkts")
}

func BenchmarkFig3aMultipathFactorCDF(b *testing.B) {
	c := characterization(b)
	var med float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3a(c, 25)
		if err != nil {
			b.Fatal(err)
		}
		med = r.P50
	}
	b.ReportMetric(med, "medianMu")
}

func BenchmarkFig3bLogFit(b *testing.B) {
	c := characterization(b)
	var slope float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3bc(c, []int{5})
		if err != nil {
			b.Fatal(err)
		}
		slope = r.Fits[0].A
	}
	b.ReportMetric(slope, "fitSlopeA")
}

func BenchmarkFig3cLogFitAcrossSubcarriers(b *testing.B) {
	c := characterization(b)
	var mono float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3bc(c, []int{5, 10, 15, 20, 25})
		if err != nil {
			b.Fatal(err)
		}
		mono = r.MonotoneFraction
	}
	b.ReportMetric(mono, "monotoneFrac")
}

func BenchmarkFig4TemporalStability(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(600, 1)
		if err != nil {
			b.Fatal(err)
		}
		spread = r.Locations[0].MaxSpread
	}
	b.ReportMetric(spread, "maxMuSpread")
}

func BenchmarkFig5bMUSICPseudospectrum(b *testing.B) {
	var peaks float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5b(100, 1)
		if err != nil {
			b.Fatal(err)
		}
		peaks = float64(len(r.Peaks))
	}
	b.ReportMetric(peaks, "peaks")
}

func BenchmarkFig5cRSSByAngle(b *testing.B) {
	var peakDeg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5c(16, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		peakDeg = r.PeakAngleDeg
	}
	b.ReportMetric(peakDeg, "peakAngleDeg")
}

func BenchmarkFig7ROC(b *testing.B) {
	c := campaign(b)
	var basTPR, subTPR, pathTPR, pathFPR float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(c)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.PerScheme {
			switch s.Scheme {
			case core.SchemeBaseline:
				basTPR = s.Balanced.TPR
			case core.SchemeSubcarrier:
				subTPR = s.Balanced.TPR
			case core.SchemeSubcarrierPath:
				pathTPR = s.Balanced.TPR
				pathFPR = s.Balanced.FPR
			}
		}
	}
	b.ReportMetric(100*basTPR, "baselineTP%")
	b.ReportMetric(100*subTPR, "subcarrierTP%")
	b.ReportMetric(100*pathTPR, "pathTP%")
	b.ReportMetric(100*pathFPR, "pathFP%")
}

func BenchmarkFig8PerCase(b *testing.B) {
	c := campaign(b)
	var case3 float64
	for i := 0; i < b.N; i++ {
		roc, err := experiments.Fig7(c)
		if err != nil {
			b.Fatal(err)
		}
		r, err := experiments.Fig8(c, roc, []int{1, 2, 3, 4, 5})
		if err != nil {
			b.Fatal(err)
		}
		case3 = r.PerScheme[core.SchemeSubcarrierPath][2]
	}
	b.ReportMetric(100*case3, "case3PathTP%")
}

func BenchmarkFig9DetectionRange(b *testing.B) {
	var basRange, pathRange float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(25, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		basRange = r.RangeAt90[core.SchemeBaseline]
		pathRange = r.RangeAt90[core.SchemeSubcarrierPath]
	}
	b.ReportMetric(basRange, "baselineRange_m")
	b.ReportMetric(pathRange, "pathRange_m")
}

func BenchmarkFig10AngleErrors(b *testing.B) {
	var medSingle, medAvg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(40, 25, 1)
		if err != nil {
			b.Fatal(err)
		}
		medSingle = r.MedianSingle
		medAvg = r.MedianAvg
	}
	b.ReportMetric(medSingle, "medErrSingle_deg")
	b.ReportMetric(medAvg, "medErrAvg_deg")
}

func BenchmarkFig11PerAngle(b *testing.B) {
	var gainLarge float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(7, 1.5, 25, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Path-weighting gain over baseline at the largest angle bin.
		last := len(r.AnglesDeg) - 1
		gainLarge = r.PerScheme[core.SchemeSubcarrierPath][last] - r.PerScheme[core.SchemeBaseline][last]
	}
	b.ReportMetric(100*gainLarge, "largeAngleGain_pp")
}

func BenchmarkFig12PacketQuantity(b *testing.B) {
	var at25 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12([]int{1, 5, 25}, 1)
		if err != nil {
			b.Fatal(err)
		}
		at25 = r.PerScheme[core.SchemeSubcarrierPath][2]
	}
	b.ReportMetric(100*at25, "pathTPat25pkts%")
}

// --- Synthesis pipeline (cached vs naive) ------------------------------

// BenchmarkEnvironmentResponse compares the naive per-ray channel synthesis
// against the phasor-cached ResponseInto path, for an empty room and with a
// person on the link. Both paths stay runnable so the speedup is always
// measurable; the cache-consistency tests bound their divergence below 1e-9.
func BenchmarkEnvironmentResponse(b *testing.B) {
	s, err := scenario.Classroom(5)
	if err != nil {
		b.Fatal(err)
	}
	freqs := s.Grid.Frequencies()
	if err := s.Env.PrepareGrid(freqs); err != nil {
		b.Fatal(err)
	}
	bodies := []body.Body{body.Default(s.LinkMidpoint())}
	cases := []struct {
		name   string
		bodies []body.Body
	}{
		{"empty", nil},
		{"occupied", bodies},
	}
	for _, tc := range cases {
		b.Run("naive/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Env.Response(freqs, tc.bodies)
			}
		})
		b.Run("cached/"+tc.name, func(b *testing.B) {
			dst := make([][]complex128, len(s.Env.RX.Elements))
			for i := range dst {
				dst[i] = make([]complex128, len(freqs))
			}
			sc := &propagation.ResponseScratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Env.ResponseInto(dst, tc.bodies, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtractorCapture compares one full packet capture — synthesis
// plus impairments — on the naive path (fresh allocations, per-ray
// evaluation) against the cached path (CaptureInto on a pooled frame).
func BenchmarkExtractorCapture(b *testing.B) {
	s, err := scenario.Classroom(5)
	if err != nil {
		b.Fatal(err)
	}
	x, err := s.NewExtractor(3)
	if err != nil {
		b.Fatal(err)
	}
	bodies := []body.Body{body.Default(s.LinkMidpoint())}
	cases := []struct {
		name   string
		bodies []body.Body
	}{
		{"empty", nil},
		{"occupied", bodies},
	}
	for _, tc := range cases {
		b.Run("naive/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.CaptureNaive(tc.bodies)
			}
		})
		b.Run("cached/"+tc.name, func(b *testing.B) {
			f := csi.NewFrame(len(x.Env.RX.Elements), x.Grid.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := x.CaptureInto(f, tc.bodies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Engine (multi-link monitoring) ------------------------------------

// Pre-recorded empty-room frames shared by the engine benchmarks, so they
// measure scoring throughput rather than simulation cost.
var (
	engineFramesOnce sync.Once
	engineFrames     []*csi.Frame
	engineScenario   *scenario.Scenario
	engineFramesErr  error
)

func engineFixture(b *testing.B) (*scenario.Scenario, []*csi.Frame) {
	b.Helper()
	engineFramesOnce.Do(func() {
		s, err := scenario.LinkCase(2, 7)
		if err != nil {
			engineFramesErr = err
			return
		}
		x, err := s.NewExtractor(1)
		if err != nil {
			engineFramesErr = err
			return
		}
		engineScenario = s
		engineFrames = x.CaptureN(200, nil)
	})
	if engineFramesErr != nil {
		b.Fatal(engineFramesErr)
	}
	return engineScenario, engineFrames
}

// benchmarkEngineScoring drives an 8-link fleet through the engine's
// scoring pool with the given worker count. One benchmark op is one
// monitoring window per link. Frames are replayed from memory; detector
// profiles are calibrated once outside the timer.
func benchmarkEngineScoring(b *testing.B, workers int) {
	const links = 8
	s, frames := engineFixture(b)
	e := engine.New(engine.Config{Workers: workers, WindowSize: 25, Fusion: engine.KOfN{K: 1}})
	for i := 0; i < links; i++ {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	// Warm-up: one window per link primes the persistent shard scratches and
	// window slabs, so the timer sees only the steady state.
	if err := e.Run(ctx, 1); err != nil {
		b.Fatal(err)
	}
	warm := e.Metrics().WindowsScored
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(ctx, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	scored := float64(e.Metrics().WindowsScored - warm)
	b.ReportMetric(scored/b.Elapsed().Seconds(), "scores/s")
}

// BenchmarkEngineScoringWorkers reports fleet scoring throughput as the
// pool grows — the scores/s metric should scale near-linearly with workers
// up to the machine's core count (on a single-core host the curve is flat).
func BenchmarkEngineScoringWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchmarkEngineScoring(b, w)
		})
	}
}

// BenchmarkEngineSteadyState measures one full steady-state tick of the
// sharded pipeline per benchmark op: every link of an 8-link fleet pulls and
// scores one window, and every fleet-wide round of decisions triggers a
// fused site verdict plus a metrics poll through the reuse-friendly
// VerdictInto/MetricsInto/LinksInto paths — the complete monitoring loop a
// daemon like mlink-serve runs forever. A warm-up Run primes the per-link
// slabs, shard scratches and report buffers outside the timer; after it the
// loop must report 0 allocs/op (cmd/benchcheck enforces this in CI; the
// constant per-Run setup — spawning shards, one context — amortizes to zero
// over the ≥100 timed ops CI's precise pass uses).
func BenchmarkEngineSteadyState(b *testing.B) {
	const links = 8
	s, frames := engineFixture(b)
	var (
		reportMu sync.Mutex
		decided  int
		verdict  engine.SiteVerdict
		metrics  engine.Metrics
		ids      []string
		verdicts uint64
		e        *engine.Engine
	)
	e = engine.New(engine.Config{
		Workers:    4,
		WindowSize: 25,
		Fusion:     engine.KOfN{K: 1},
		OnDecision: func(string, core.Decision) {
			// The daemon's report loop: after each fleet-wide round, fuse a
			// site verdict and poll the metrics block, all through the
			// allocation-free Into variants.
			reportMu.Lock()
			defer reportMu.Unlock()
			decided++
			if decided%links != 0 {
				return
			}
			if err := e.VerdictInto(&verdict); err != nil {
				b.Error(err)
			}
			e.MetricsInto(&metrics)
			ids = e.LinksInto(ids)
			verdicts++
		},
	})
	for i := 0; i < links; i++ {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	// Warm-up: primes slabs, scratches and the report loop's buffers.
	if err := e.Run(ctx, 2); err != nil {
		b.Fatal(err)
	}
	warm := e.Metrics().WindowsScored
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(ctx, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	scored := float64(e.Metrics().WindowsScored - warm)
	b.ReportMetric(scored/b.Elapsed().Seconds(), "scores/s")
	if verdicts == 0 {
		b.Fatal("report loop never fused a verdict")
	}
}

// BenchmarkEngineSteadyStateSupervised is the steady-state loop with link
// supervision enabled: every source sits behind its per-link supervisor —
// a producer goroutine feeding a bounded SPSC ring the shard drains
// non-blockingly, plus a watcher ticking the staleness ladder — and the
// score path must STILL report 0 allocs/op (cmd/benchcheck enforces this
// in CI). The replay sources never stall or error here, so the measurement
// isolates the supervision overhead every healthy link pays forever: the
// ring handoff, the lifecycle/heartbeat bookkeeping, and the health
// weighting in fusion. The per-Run setup (supervisor goroutines, tickers)
// amortizes to zero over the ≥100 timed ops CI's precise pass uses.
func BenchmarkEngineSteadyStateSupervised(b *testing.B) {
	const links = 8
	s, frames := engineFixture(b)
	var (
		reportMu sync.Mutex
		decided  int
		verdict  engine.SiteVerdict
		metrics  engine.Metrics
		ids      []string
		verdicts uint64
		e        *engine.Engine
	)
	e = engine.New(engine.Config{
		Workers:    4,
		WindowSize: 25,
		Fusion:     engine.KOfN{K: 1},
		OnDecision: func(string, core.Decision) {
			reportMu.Lock()
			defer reportMu.Unlock()
			decided++
			if decided%links != 0 {
				return
			}
			if err := e.VerdictInto(&verdict); err != nil {
				b.Error(err)
			}
			e.MetricsInto(&metrics)
			ids = e.LinksInto(ids)
			verdicts++
		},
	})
	// Default policy: generous staleness thresholds keep the watcher ticker
	// cold relative to the scoring cadence, as a production deployment would.
	suppol := supervise.Policy{}
	if err := e.SetSupervision(&suppol); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < links; i++ {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	// Warm-up: primes slabs, scratches, report buffers, and the rings.
	if err := e.Run(ctx, 2); err != nil {
		b.Fatal(err)
	}
	warm := e.Metrics().WindowsScored
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(ctx, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	scored := float64(e.Metrics().WindowsScored - warm)
	b.ReportMetric(scored/b.Elapsed().Seconds(), "scores/s")
	if verdicts == 0 {
		b.Fatal("report loop never fused a verdict")
	}
}

// BenchmarkEngineFrameToDecision times one supervised link's hand-off from
// frames to decision: one op feeds a window's 25 frames into the link's
// source and waits for that window's OnDecision. Between ops the link's
// ingest ring is empty and its shard parks, so every op pays the producer's
// pushes, the parked shard's wake-up and one window's scoring — the path
// e2ebench's net-stream measures as supervise.handoff_wait_us plus
// core.score_us. A shard that only a timer can wake adds that timer's real
// expiry (about a millisecond when every P is idle, however short the
// requested sleep) to each op; the recorded min_speedup pins the
// producer-rung wake-up that replaced it. The Run (and the supervisor's
// goroutines) start before the timer, so the loop must report 0 allocs/op.
func BenchmarkEngineFrameToDecision(b *testing.B) {
	s, frames := engineFixture(b)
	decided := make(chan struct{}, 1)
	e := engine.New(engine.Config{
		Workers:     1,
		WindowSize:  25,
		Supervision: &supervise.Policy{},
		OnDecision:  func(string, core.Decision) { decided <- struct{}{} },
	})
	src := make(chan *csi.Frame, len(frames))
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
	err := e.AddLink("l0", cfg, engine.SourceFunc(func() (*csi.Frame, error) {
		f, ok := <-src
		if !ok {
			return nil, io.EOF
		}
		return f, nil
	}))
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	feed := func(n int) {
		for i := 0; i < n; i++ {
			src <- frames[next]
			next = (next + 1) % len(frames)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed(120) // Calibrate(60) draws 60 profile + 60 held-out frames
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- e.Run(ctx, 0) }()
	// Warm-up: primes the shard scratch and the link's window slab.
	for i := 0; i < 4; i++ {
		feed(25)
		<-decided
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(25)
		<-decided
	}
	b.StopTimer()
	cancel()
	close(src) // the producer is blocked in the source
	if err := <-runErr; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineSteadyStateJournal is the steady-state loop with crash-safe
// persistence attached: every link is adaptive and emits a journal delta for
// every scored window, the background syncer drains and fsyncs on a 5 ms
// cadence, and the score path must STILL report 0 allocs/op (cmd/benchcheck
// enforces this in CI). The adaptation policy disables profile refreshes
// (refresh rebuilds a profile, which allocates by design) so the measurement
// isolates the journal path: delta serialization into the shard's reused
// record buffer, the SPSC buffer handoff, and the syncer's absorb-and-write
// loop. Compaction is disabled — it rewrites whole files and belongs to
// shutdown/maintenance, not the steady state.
func BenchmarkEngineSteadyStateJournal(b *testing.B) {
	const links = 8
	s, frames := engineFixture(b)
	pol := adapt.Policy{SilentFraction: 1e-9, TrackBand: -1}
	e := engine.New(engine.Config{
		Workers:    4,
		WindowSize: 25,
		Adaptation: &pol,
	})
	for i := 0; i < links; i++ {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	j, err := fleet.OpenJournal(b.TempDir(), fleet.JournalConfig{
		SyncEvery:    5 * time.Millisecond,
		CompactBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	if err := e.SetJournal(j); err != nil {
		b.Fatal(err)
	}
	// Warm-up: primes slabs and scratches, emits the one-off full records,
	// and — because a delta embeds the drift monitor's rolling rings — runs
	// long enough to fill those rings (default 20 windows) plus the null
	// buffer (32), so the delta record and every reused buffer behind it
	// reach their steady size before the timer starts.
	if err := e.Run(ctx, 56); err != nil {
		b.Fatal(err)
	}
	warm := e.Metrics().WindowsScored
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(ctx, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := j.Err(); err != nil {
		b.Fatal(err)
	}
	scored := float64(e.Metrics().WindowsScored - warm)
	b.ReportMetric(scored/b.Elapsed().Seconds(), "scores/s")
}

// BenchmarkEngineSteadyStateAdaptive is the steady-state loop of an
// adaptive fleet in an empty room — a deployed link's normal state: 8
// SchemeSubcarrier links under the default adapt.Policy, so nearly every
// window is silent and refreshes its link's profile. The refresh measures
// the window from the frames the score already sanitized on the shard's
// scratch, and computes its mean RSS with one logarithm per subcarrier; the
// recorded min_speedup pins that win over sanitizing and measuring every
// refresh window a second time. Unlike the other steady-state benchmarks
// this one allocates: each refresh publishes a fresh copy-on-write profile
// (concurrent readers hold the old one), and benchcheck bounds that count.
// The refreshes/window metric confirms the refresh path is what is timed.
func BenchmarkEngineSteadyStateAdaptive(b *testing.B) {
	const links = 8
	s, frames := engineFixture(b)
	e := engine.New(engine.Config{
		Workers:    4,
		WindowSize: 25,
		Fusion:     engine.KOfN{K: 1},
		Adaptation: &adapt.Policy{},
	})
	for i := 0; i < links; i++ {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	// Warm-up: primes slabs and scratches and fills the adapters' rolling
	// drift and null buffers to their steady size.
	if err := e.Run(ctx, 56); err != nil {
		b.Fatal(err)
	}
	refreshes := func() (n uint64) {
		for _, lm := range e.Metrics().PerLink {
			n += lm.Health.Refreshes
		}
		return n
	}
	warm, warmRefreshes := e.Metrics().WindowsScored, refreshes()
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(ctx, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	scored := float64(e.Metrics().WindowsScored - warm)
	b.ReportMetric(scored/b.Elapsed().Seconds(), "scores/s")
	b.ReportMetric(float64(refreshes()-warmRefreshes)/scored, "refreshes/window")
}

// BenchmarkEngineSteadyStateSkewed measures the scheduler's answer to a
// lopsided fleet: one link runs the MUSIC-weighted SchemeSubcarrierPath
// detector on a fine 0.05° angular grid (3601 steering rows against the
// default 181 — a survey-grade localization link) — several times more DSP
// per window than its 15 SchemeSubcarrier peers — so under static affinity
// the shard seeded with the heavy link drags its queue-mates and, once they
// retire, idles three of four workers behind it. The stealing/static sub-benchmark pair
// isolates the work-stealing win: on a multi-core host stealing finishes
// the same fleet quota measurably sooner because the cheap links drain
// through whichever shards have capacity while one shard grinds the heavy
// link. (On a single-core host the pair ties — there is no idle worker to
// steal onto — so CI's multi-core runner is where the gap is asserted.)
// One benchmark op is one window per link, as in the other engine benches.
func BenchmarkEngineSteadyStateSkewed(b *testing.B) {
	const links = 16
	run := func(b *testing.B, workers int, static bool) {
		s, frames := engineFixture(b)
		e := engine.New(engine.Config{
			Workers:        workers,
			WindowSize:     25,
			StaticAffinity: static,
			Fusion:         engine.KOfN{K: 1},
		})
		for i := 0; i < links; i++ {
			scheme := core.SchemeSubcarrier
			if i == 0 {
				scheme = core.SchemeSubcarrierPath
			}
			cfg := core.DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
			if i == 0 {
				cfg.SpectrumStepDeg = 0.05
			}
			if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
				b.Fatal(err)
			}
		}
		ctx := context.Background()
		if err := e.Calibrate(ctx, 60); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(ctx, 1); err != nil { // warm slabs and scratches
			b.Fatal(err)
		}
		warm := e.Metrics()
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(ctx, b.N); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		m := e.Metrics()
		b.ReportMetric(float64(m.WindowsScored-warm.WindowsScored)/b.Elapsed().Seconds(), "scores/s")
		b.ReportMetric(float64(m.Steals-warm.Steals), "steals")
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("stealing/workers=%d", w), func(b *testing.B) { run(b, w, false) })
		b.Run(fmt.Sprintf("static/workers=%d", w), func(b *testing.B) { run(b, w, true) })
	}
}

// BenchmarkBroadcastFanout measures the serving plane's encode-once verdict
// fan-out: one benchmark op is one fused round published through the hub —
// VerdictInto from the engine's seqlock snapshots, one JSON/SSE
// serialization into a recycled frame, and a refcounted slice handed to
// every subscriber's latest-wins ring. The subscriber axis {1, 100, 10000}
// is the whole point: cost per round must not grow with watcher count
// beyond the O(subs) ring pushes (no per-subscriber encoding, no
// per-subscriber buffers), and the steady state must report 0 allocs/op —
// cmd/benchcheck enforces the alloc bound at every fan-out width. Idle
// subscribers model the worst case: nobody drains, every ring rotates
// through drop-oldest, and the frames recirculate through the freelist.
func BenchmarkBroadcastFanout(b *testing.B) {
	const links = 8
	s, frames := engineFixture(b)
	e := engine.New(engine.Config{Workers: 4, WindowSize: 25, Fusion: engine.KOfN{K: 1}})
	for i := 0; i < links; i++ {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	// One window per link so every link has a decision and VerdictInto
	// fuses a full-coverage verdict each publish.
	if err := e.Run(ctx, 1); err != nil {
		b.Fatal(err)
	}
	for _, subs := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			// MaxLag -1: idle watchers coalesce forever instead of being
			// shed, so the fan-out width stays fixed through the run.
			hub := serve.NewHub(e, serve.HubOptions{MaxLag: -1})
			defer hub.Close()
			for i := 0; i < subs; i++ {
				if _, err := hub.Subscribe(); err != nil {
					b.Fatal(err)
				}
			}
			// Warm-up: fill the rings and the frame freelist so the timer
			// sees only recycled buffers.
			for i := 0; i < 8; i++ {
				if err := hub.PublishRound(); err != nil {
					b.Fatal(err)
				}
			}
			start := hub.Encodes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := hub.PublishRound(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := hub.Encodes() - start; got != uint64(b.N) {
				b.Fatalf("encoded %d rounds for %d publishes — fan-out must encode exactly once per round", got, b.N)
			}
		})
	}
}

// BenchmarkEngineSteadyStateSubscribed is BenchmarkEngineSteadyState with
// the serving plane attached and maximally popular: 10 000 idle SSE
// subscribers hang off the hub while the fleet scores, and the report loop
// nudges the hub once per fused round exactly as the facade's OnDecision
// wiring does. The hub's encoder goroutine coalesces those nudges and
// publishes off the scoring path, so the scoring-side cost is one atomic
// add per decision plus a non-blocking channel send per round — benchcheck
// pins this via scale_vs against the unsubscribed baseline: thousands of
// watchers must not cost the scoring path a measurable slowdown.
func BenchmarkEngineSteadyStateSubscribed(b *testing.B) {
	const links = 8
	s, frames := engineFixture(b)
	var (
		reportMu sync.Mutex
		decided  int
		verdict  engine.SiteVerdict
		metrics  engine.Metrics
		ids      []string
		verdicts uint64
		e        *engine.Engine
		hub      *serve.Hub
	)
	e = engine.New(engine.Config{
		Workers:    4,
		WindowSize: 25,
		Fusion:     engine.KOfN{K: 1},
		OnDecision: func(string, core.Decision) {
			reportMu.Lock()
			defer reportMu.Unlock()
			decided++
			if decided%links != 0 {
				return
			}
			if err := e.VerdictInto(&verdict); err != nil {
				b.Error(err)
			}
			e.MetricsInto(&metrics)
			ids = e.LinksInto(ids)
			verdicts++
			hub.Notify()
		},
	})
	for i := 0; i < links; i++ {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, engine.NewReplaySource(frames, true)); err != nil {
			b.Fatal(err)
		}
	}
	hub = serve.NewHub(e, serve.HubOptions{MaxLag: -1})
	defer hub.Close()
	hub.Start()
	for i := 0; i < 10000; i++ {
		if _, err := hub.Subscribe(); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		b.Fatal(err)
	}
	// Warm-up: primes slabs, scratches, report buffers, rings and frames.
	if err := e.Run(ctx, 2); err != nil {
		b.Fatal(err)
	}
	warm := e.Metrics().WindowsScored
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(ctx, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	scored := float64(e.Metrics().WindowsScored - warm)
	b.ReportMetric(scored/b.Elapsed().Seconds(), "scores/s")
	if verdicts == 0 {
		b.Fatal("report loop never fused a verdict")
	}
	if hub.Rounds() == 0 {
		b.Fatal("hub never saw a round notification")
	}
}

// BenchmarkDetectorScorePath measures one full path-weighted window score —
// sanitize, subcarrier weights, monitor covariance + Bartlett angular
// spectrum, calibration spectrum from the profile's spectral partials,
// path-weighted distance — i.e. the per-window cost of the heavy link in the
// skewed fleet (SchemeSubcarrierPath, §IV-C). The profile is calibrated with
// the engine's 60-frame horizon so the calibration-side covariance cost is
// the one the daemon pays. Steady state must be 0 allocs/op, and benchcheck
// pins the PR 9 precomputation win (cached steering table + per-profile
// spectral partials) via prev_ns_per_op/min_speedup.
func BenchmarkDetectorScorePath(b *testing.B) {
	s, frames := engineFixture(b)
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrierPath, s.Env.RX.Offsets())
	profile, err := core.Calibrate(cfg, frames[:60])
	if err != nil {
		b.Fatal(err)
	}
	det, err := core.NewDetector(cfg, profile)
	if err != nil {
		b.Fatal(err)
	}
	window := frames[100:125]
	sc := core.NewScratch()
	if _, err := det.ScoreScratch(window, sc); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.ScoreScratch(window, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorScoreScratch compares the allocating Score path against
// ScoreScratch with a reused per-worker scratch — the engine's hot path.
func BenchmarkDetectorScoreScratch(b *testing.B) {
	s, frames := engineFixture(b)
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
	profile, err := core.Calibrate(cfg, frames[:100])
	if err != nil {
		b.Fatal(err)
	}
	det, err := core.NewDetector(cfg, profile)
	if err != nil {
		b.Fatal(err)
	}
	window := frames[100:125]
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := det.Score(window); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		sc := core.NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := det.ScoreScratch(window, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// ablationROC calibrates a detector variant on link case 2 and returns the
// balanced-point TPR over a small positive/negative sample set.
func ablationROC(b *testing.B, mutate func(*core.Config)) float64 {
	b.Helper()
	s, err := scenario.LinkCase(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	x, err := s.NewExtractor(9)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrierPath, s.Env.RX.Offsets())
	mutate(&cfg)
	profile, err := core.Calibrate(cfg, x.CaptureN(150, nil))
	if err != nil {
		b.Fatal(err)
	}
	det, err := core.NewDetector(cfg, profile)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var samples []eval.Sample
	for _, loc := range s.Grid3x3() {
		target := body.Default(loc)
		target.Position = geom.Point{X: loc.X + rng.NormFloat64()*0.01, Y: loc.Y + rng.NormFloat64()*0.01}
		pos, err := det.Score(x.CaptureN(25, []body.Body{target}))
		if err != nil {
			b.Fatal(err)
		}
		neg, err := det.Score(x.CaptureN(25, nil))
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, eval.Sample{Score: pos, Positive: true}, eval.Sample{Score: neg})
	}
	points, err := eval.ROC(samples)
	if err != nil {
		b.Fatal(err)
	}
	bp, err := eval.BalancedPoint(points)
	if err != nil {
		b.Fatal(err)
	}
	return bp.TPR
}

// BenchmarkAblationStabilityRatio compares Eq. 15 (mean μ × stability
// ratio) against the plain per-packet Eq. 12 weighting.
func BenchmarkAblationStabilityRatio(b *testing.B) {
	var eq15, eq12 float64
	for i := 0; i < b.N; i++ {
		eq15 = ablationROC(b, func(c *core.Config) {})
		eq12 = ablationROC(b, func(c *core.Config) { c.UsePerPacketWeights = true })
	}
	b.ReportMetric(100*eq15, "eq15TP%")
	b.ReportMetric(100*eq12, "eq12TP%")
}

// BenchmarkAblationAngularClamp compares the paper's ±60° path-weight clamp
// against an unclamped ±90° window.
func BenchmarkAblationAngularClamp(b *testing.B) {
	var clamped, unclamped float64
	for i := 0; i < b.N; i++ {
		clamped = ablationROC(b, func(c *core.Config) {})
		unclamped = ablationROC(b, func(c *core.Config) {
			c.PathWeight.MinDeg = -89.9
			c.PathWeight.MaxDeg = 89.9
		})
	}
	b.ReportMetric(100*clamped, "clamped60TP%")
	b.ReportMetric(100*unclamped, "unclampedTP%")
}

// BenchmarkAblationSanitize compares detection with and without phase
// sanitization.
func BenchmarkAblationSanitize(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = ablationROC(b, func(c *core.Config) {})
		off = ablationROC(b, func(c *core.Config) { c.Sanitize = false })
	}
	b.ReportMetric(100*on, "sanitizedTP%")
	b.ReportMetric(100*off, "rawTP%")
}

// BenchmarkAblationLOSApprox grades the Eq. 10 dominant-tap LOS-power
// approximation against the simulator's oracle LOS power.
func BenchmarkAblationLOSApprox(b *testing.B) {
	s, err := scenario.Classroom(5)
	if err != nil {
		b.Fatal(err)
	}
	x, err := s.NewExtractor(7)
	if err != nil {
		b.Fatal(err)
	}
	freqs := s.Grid.Frequencies()
	var meanAbsErr float64
	for i := 0; i < b.N; i++ {
		var acc, count float64
		for p := 0; p < 20; p++ {
			f := x.Capture(nil)
			mu, err := core.MultipathFactors(f.CSI[1], s.Grid)
			if err != nil {
				b.Fatal(err)
			}
			for k := range mu {
				los, total := s.Env.OracleLOS(freqs[k], 1, nil)
				if total <= 0 {
					continue
				}
				oracle := los / total
				d := mu[k] - oracle
				if d < 0 {
					d = -d
				}
				acc += d
				count++
			}
		}
		meanAbsErr = acc / count
	}
	b.ReportMetric(meanAbsErr, "muAbsErrVsOracle")
}

// BenchmarkAblationAntennaCount measures MUSIC accuracy as the array grows
// (3 antennas as in the paper vs 8 — the paper's future-work lever).
func BenchmarkAblationAntennaCount(b *testing.B) {
	var err3, err8 float64
	for i := 0; i < b.N; i++ {
		err3 = angleErrWithAntennas(b, 3)
		err8 = angleErrWithAntennas(b, 8)
	}
	b.ReportMetric(err3, "medErr3ant_deg")
	b.ReportMetric(err8, "medErr8ant_deg")
}

func mustRoom(b *testing.B) *propagation.Room {
	b.Helper()
	room, err := propagation.RectRoom(6, 8, propagation.Drywall)
	if err != nil {
		b.Fatal(err)
	}
	room.Walls[1].Mat = propagation.Concrete
	return room
}

func defaultParams() propagation.LinkParams { return propagation.DefaultLinkParams() }

func defaultImp() csi.Impairments { return csi.DefaultImpairments() }

func angleErrWithAntennas(b *testing.B, n int) float64 {
	b.Helper()
	s, err := scenario.Build(scenario.Spec{
		Name:       "ablation-array",
		Room:       mustRoom(b),
		TX:         geom.Point{X: 1.5, Y: 6.8},
		RXCenter:   geom.Point{X: 4.5, Y: 6.8},
		NumAnts:    n,
		Params:     defaultParams(),
		MaxBounces: 2,
		Imp:        defaultImp(),
		Seed:       77,
	})
	if err != nil {
		b.Fatal(err)
	}
	est, err := music.NewEstimator(s.Env.RX.Offsets(), 299792458.0/s.Grid.Center)
	if err != nil {
		b.Fatal(err)
	}
	var errs []float64
	for trial := 0; trial < 15; trial++ {
		x, err := s.NewExtractor(int64(500 + trial))
		if err != nil {
			b.Fatal(err)
		}
		frames := x.CaptureN(10, nil)
		clean, err := sanitize.Frames(frames, s.Grid.Indices)
		if err != nil {
			b.Fatal(err)
		}
		cov, err := music.Covariance(clean, nil)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := est.Pseudospectrum(cov, 2)
		if err != nil {
			b.Fatal(err)
		}
		dom, err := spec.DominantAngle()
		if err != nil {
			b.Fatal(err)
		}
		// LOS arrives at broadside in this geometry.
		if dom < 0 {
			dom = -dom
		}
		errs = append(errs, dom)
	}
	// Median.
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j] < errs[j-1]; j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
	return errs[len(errs)/2]
}
