package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/engine"
)

// replayWorkload is a closed-loop workload: sources hand frames to the
// engine as fast as its shards pull them.
type replayWorkload struct {
	links int
	// lead empty windows play once, then segWindows windows loop.
	lead, segWindows int
	scheme           core.Scheme
	occupied         bool
	// maxWindowsPerSec bounds the fleet's window rate, to size the records.
	maxWindowsPerSec float64
}

func (w replayWorkload) inputs(seed int64) ([]*linkInput, error) {
	return generateLinks(seed, w.links, w.lead, w.segWindows, paperRate, func(int) linkSpec {
		return linkSpec{
			scheme:   w.scheme,
			occupied: func(int) bool { return w.occupied },
		}
	})
}

// replaySetup is one built closed-loop stack.
type replaySetup struct {
	e    *engine.Engine
	s    *site
	srcs []*loopSource
}

func (w replayWorkload) setup(links []*linkInput, tr *tracer) (*replaySetup, error) {
	s := newSite(links, tr)
	e := engine.New(engine.Config{
		Workers:    workers,
		WindowSize: windowSize,
		Fusion:     engine.KOfN{K: 1},
		Adaptation: &adapt.Policy{},
		OnDecision: s.onDecision,
	})
	st := &replaySetup{e: e, s: s}
	for _, in := range links {
		src := &loopSource{in: in, tr: tr}
		if err := e.AddLink(in.id, in.cfg, src); err != nil {
			return nil, err
		}
		st.srcs = append(st.srcs, src)
	}
	if err := e.Calibrate(context.Background(), calPackets); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	return st, nil
}

// report is one pass of the report loop: when it read the verdict and how
// many complete rounds that verdict was guaranteed to reflect.
type report struct {
	at     int64
	credit int64
}

func (w replayWorkload) run(seed int64, seconds float64, traced bool) (*outcome, error) {
	links, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	out := &outcome{props: describeInputs(links, "closed loop (unpaced)"), tr: tr}
	var st *replaySetup
	for i := 0; i < setupReps; i++ {
		settle()
		t0 := time.Now()
		if st, err = w.setup(links, tr); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	e, s := st.e, st.s
	perLink := int(w.maxWindowsPerSec*(seconds+1))/w.links + 64
	s.arm(perLink)
	for i, src := range st.srcs {
		src.rec = s.recs[i]
	}

	// The report loop a daemon runs: after every fleet-wide round, fuse a
	// site verdict and poll the metrics block.
	var (
		reportMu sync.Mutex
		verdict  engine.SiteVerdict
		metrics  engine.Metrics
		reports  = make([]report, 0, perLink)
		fuseErrs int
		fuseBuf  = tr.buf()
	)
	s.onRound = func() {
		reportMu.Lock()
		defer reportMu.Unlock()
		credit := s.minDecided()
		t0 := nowNs()
		if err := e.VerdictInto(&verdict); err != nil {
			fuseErrs++
		}
		t1 := nowNs()
		e.MetricsInto(&metrics)
		t2 := nowNs()
		reports = append(reports, report{at: t1, credit: credit})
		if tr.on.Load() {
			fuseBuf.add(spanFuse, roundLink, uint32(credit), t0, t1)
			fuseBuf.add(spanMetrics, roundLink, uint32(credit), t1, t2)
		}
	}

	ph, runErr := runPhases(nowNs(), 0, seconds, traced, tr, func(ctx context.Context) error { return e.Run(ctx, 0) },
		func() int64 { return int64(s.decided.Load()) })
	// A last report once the run stops, as a daemon's shutdown path does.
	s.onRound()
	if runErr != nil {
		return nil, fmt.Errorf("engine run: %w", runErr)
	}

	// Correctness: the live decisions against the sequential reference, and
	// every handed-off window must have been decided.
	live := s.liveDecisions()
	windows := make([]int, len(links))
	handedOff := make([]int, len(links))
	for i, r := range s.recs {
		windows[i] = len(r.dec)
		handedOff[i] = len(r.handoff)
		out.attempted += len(r.handoff)
	}
	ref, err := reference(links, windows, engine.KOfN{K: 1}, nil)
	if err != nil {
		return nil, err
	}
	out.failed += windowFailures(handedOff, live, ref) + fuseErrs
	out.accuracy = linkAccuracy(links, live)

	// End-to-end figures over the measured (untraced) interval.
	from, to := ph.warm.at, ph.split.at
	out.windows = int(ph.split.windows - ph.warm.windows)
	out.elapsed = float64(to-from) / 1e9
	out.cpuPerWindow = float64(ph.split.cpu-ph.warm.cpu) / 1e3 / float64(out.windows)
	out.peakHeapMB = ph.peakHeapMB
	for _, r := range s.recs {
		for w, at := range r.decided {
			if at >= from && at < to && w < len(r.handoff) {
				out.decisions = append(out.decisions, timed{at: at, ms: float64(at-r.handoff[w]) / 1e6})
			}
		}
	}
	// Round r is due when the last link hands its window r to the engine,
	// and delivered by the first report whose verdict reflects it.
	rounds := len(ref[0])
	for _, d := range live {
		if len(d) < rounds {
			rounds = len(d)
		}
	}
	due := make([]int64, rounds)
	for r := range due {
		for _, rec := range s.recs {
			if rec.handoff[r] > due[r] {
				due[r] = rec.handoff[r]
			}
		}
	}
	out.deliver(due, reports, from, to, paperWindowNs)

	if traced {
		e.MetricsInto(&metrics)
		out.layers = engineLayers(&metrics, tr, ph)
		out.layers["trace.overhead_share"] = 1 - ph.tracedRate()/ph.untracedRate()
		if err := stagePass(links, out.layers); err != nil {
			return nil, err
		}
		out.layers["supervise.handoff_wait_us_p50"] = median(values(out.decisions))*1e3 - out.layers["stage.score_observe_us"]
	}
	return out, nil
}

// engineLayers gathers the per-layer figures every workload takes from the
// engine's metrics block, the fuse spans and the runtime counters.
func engineLayers(m *engine.Metrics, tr *tracer, ph *phases) map[string]float64 {
	l := map[string]float64{}
	var refreshes, windows uint64
	for _, lm := range m.PerLink {
		refreshes += lm.Health.Refreshes
		windows += lm.WindowsScored
	}
	l["adapt.refresh_share"] = float64(refreshes) / float64(windows)
	var util float64
	for _, sh := range m.Shards {
		util += sh.Utilization
	}
	l["engine.shard_utilization"] = util / float64(len(m.Shards))
	l["engine.steals_per_kwindow"] = float64(m.Steals) / float64(m.WindowsScored) * 1e3
	l["engine.fuse_us"] = quantile(tr.durations(spanFuse), 0.5)
	ph.runtimeLayers(l)
	return l
}
