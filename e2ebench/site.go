package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/engine"
)

// decision is the part of a core.Decision the correctness check compares.
type decision struct {
	score   float64
	present bool
}

// linkRec is one link's record of a run. The source side (handoff,
// srcSpans) is written by whoever calls the link's source; the decision
// side by the shard holding the link — one writer at a time, handed off by
// the engine's link queues.
type linkRec struct {
	link     uint8
	handoff  []int64 // closed loop: when each window's last frame left the source
	decided  []int64 // when each window's OnDecision ran
	dec      []decision
	srcSpans *spanBuf
	decSpans *spanBuf
	count    atomic.Int64 // windows decided, readable from any goroutine
}

// site is the benchmark's side of one engine: the OnDecision hook, the
// per-link records and the round bookkeeping.
type site struct {
	links []*linkInput
	recs  []*linkRec
	idx   map[string]int
	tr    *tracer
	// decided counts decisions fleet-wide; every len(links)-th one is a
	// round boundary, the cadence the daemon's report loop and the facade's
	// fleet/hub wiring use.
	decided atomic.Uint64
	onRound func()
	act     *deferredActuator
	// roundN counts, per round r, the links whose window r is decided;
	// roundDone is when the last of them was.
	roundN    []atomic.Int32
	roundDone []atomic.Int64
}

func newSite(links []*linkInput, tr *tracer) *site {
	s := &site{links: links, idx: make(map[string]int, len(links)), tr: tr}
	for i, in := range links {
		s.idx[in.id] = i
	}
	return s
}

// arm allocates the run records, sized for perLink windows per link so the
// measured loop does not grow them.
func (s *site) arm(perLink int) {
	s.recs = make([]*linkRec, len(s.links))
	for i := range s.recs {
		s.recs[i] = &linkRec{
			link:     uint8(i),
			handoff:  make([]int64, 0, perLink),
			decided:  make([]int64, 0, perLink),
			dec:      make([]decision, 0, perLink),
			srcSpans: s.tr.buf(),
			decSpans: s.tr.buf(),
		}
	}
	s.roundN = make([]atomic.Int32, perLink)
	s.roundDone = make([]atomic.Int64, perLink)
}

// onDecision is the engine's OnDecision hook.
func (s *site) onDecision(id string, d core.Decision) {
	t := nowNs()
	li := s.idx[id]
	r := s.recs[li]
	w := len(r.dec)
	r.dec = append(r.dec, decision{score: d.Score, present: d.Present})
	r.decided = append(r.decided, t)
	r.count.Store(int64(w + 1))
	if w < len(s.roundN) && int(s.roundN[w].Add(1)) == len(s.links) {
		s.roundDone[w].Store(t)
	}
	if s.decided.Add(1)%uint64(len(s.links)) == 0 && s.onRound != nil {
		s.onRound()
	}
	if s.act != nil {
		s.act.apply(li, w)
	}
	if s.tr.on.Load() {
		r.decSpans.add(spanDecision, r.link, uint32(w), t, nowNs())
	}
}

// minDecided is the number of complete rounds every link has decided: a
// verdict read after this call reflects at least that many rounds, because
// the engine publishes a link's decision before calling OnDecision.
func (s *site) minDecided() int64 {
	m := int64(math.MaxInt64)
	for _, r := range s.recs {
		if c := r.count.Load(); c < m {
			m = c
		}
	}
	return m
}

func (s *site) liveDecisions() [][]decision {
	out := make([][]decision, len(s.recs))
	for i, r := range s.recs {
		out[i] = r.dec
	}
	return out
}

// loopSource is the closed-loop source: calibration frames first, then the
// recorded segment forever (or for limit windows). Next hands out the
// segment's own frames, which is safe because a link's windows are scored
// one at a time and the segment spans many windows, so a frame is never
// handed out again while a previous use is in flight. With rec set, the
// hand-off time of every window's last frame is recorded.
type loopSource struct {
	in    *linkInput
	k     uint64 // packets served
	limit int    // windows to serve after calibration (0 = unbounded)
	rec   *linkRec
	tr    *tracer
}

func (s *loopSource) Next() (*csi.Frame, error) {
	start := nowNs()
	nCal := uint64(len(s.in.cal))
	var f *csi.Frame
	last := false
	if s.k < nCal {
		f = s.in.cal[s.k]
	} else {
		m := s.k - nCal
		if s.limit > 0 && m >= uint64(s.limit*windowSize) {
			return nil, io.EOF
		}
		f = s.in.frame(m)
		last = m%windowSize == windowSize-1
	}
	stamp(f, s.k, s.in.rate)
	s.k++
	if last && s.rec != nil {
		t := nowNs()
		s.rec.handoff = append(s.rec.handoff, t)
		if s.tr.on.Load() {
			s.rec.srcSpans.add(spanSourceNext, s.rec.link, uint32(len(s.rec.handoff)-1), start, t)
		}
	}
	return f, nil
}

// actionKind is one fleet-coordinator control call.
type actionKind uint8

const (
	actSuppressOn actionKind = iota
	actSuppressOff
	actRelock
	actRecal
)

// action is a coordinator call applied to a link right after its window w
// was decided.
type action struct {
	window  int
	kind    actionKind
	packets int
}

// deferredActuator sits between the fleet coordinator and the engine. The
// coordinator's calls are queued and applied by the target link's own
// OnDecision, i.e. between two of that link's windows, and logged with the
// window they follow. That pins every control action to a window boundary,
// so a sequential reference engine replaying the log reproduces the live
// decision sequence bit for bit. An action lands at most one window later
// than a direct call would.
type deferredActuator struct {
	eng     *engine.Engine
	idx     map[string]int
	ids     []string
	mu      sync.Mutex
	pending [][]action // guarded by mu
	npend   []atomic.Int32
	recal   []atomic.Bool // a queued recalibration not yet posted
	log     [][]action    // applied actions; per link, owned by its decision side
	errs    atomic.Int64
}

func newDeferredActuator(eng *engine.Engine, idx map[string]int) *deferredActuator {
	n := len(idx)
	ids := make([]string, n)
	for id, i := range idx {
		ids[i] = id
	}
	return &deferredActuator{
		eng: eng, idx: idx, ids: ids,
		pending: make([][]action, n), npend: make([]atomic.Int32, n),
		recal: make([]atomic.Bool, n), log: make([][]action, n),
	}
}

func (d *deferredActuator) queue(id string, a action) error {
	li, ok := d.idx[id]
	if !ok {
		return fmt.Errorf("%w: %s", engine.ErrUnknownLink, id)
	}
	d.mu.Lock()
	d.pending[li] = append(d.pending[li], a)
	d.mu.Unlock()
	d.npend[li].Add(1)
	return nil
}

// SuppressRefresh implements fleet.Actuator.
func (d *deferredActuator) SuppressRefresh(id string, on bool) error {
	k := actSuppressOff
	if on {
		k = actSuppressOn
	}
	return d.queue(id, action{kind: k})
}

// RelockLink implements fleet.Actuator.
func (d *deferredActuator) RelockLink(id string) error { return d.queue(id, action{kind: actRelock}) }

// RequestRecalibration implements fleet.Actuator.
func (d *deferredActuator) RequestRecalibration(id string, packets int) error {
	if li, ok := d.idx[id]; ok {
		d.recal[li].Store(true)
	}
	return d.queue(id, action{kind: actRecal, packets: packets})
}

// RecalibrationPending implements fleet.Actuator.
func (d *deferredActuator) RecalibrationPending(id string) bool {
	if li, ok := d.idx[id]; ok && d.recal[li].Load() {
		return true
	}
	return d.eng.RecalibrationPending(id)
}

// apply runs the actions queued for link li, after its window w.
func (d *deferredActuator) apply(li, w int) {
	if d.npend[li].Load() == 0 {
		return
	}
	d.mu.Lock()
	acts := d.pending[li]
	d.pending[li] = nil
	d.npend[li].Store(0)
	d.mu.Unlock()
	for _, a := range acts {
		a.window = w
		if err := applyAction(d.eng, d.ids[li], a); err != nil {
			d.errs.Add(1)
		}
		if a.kind == actRecal {
			d.recal[li].Store(false)
		}
		d.log[li] = append(d.log[li], a)
	}
}

func applyAction(eng *engine.Engine, id string, a action) error {
	switch a.kind {
	case actSuppressOn:
		return eng.SuppressRefresh(id, true)
	case actSuppressOff:
		return eng.SuppressRefresh(id, false)
	case actRelock:
		return eng.RelockLink(id)
	default:
		return eng.RequestRecalibration(id, a.packets)
	}
}

// reference computes every link's decision sequence on a sequential
// single-worker engine fed the same inputs: the same calibration frames,
// windows[i] windows of link i's stream, and the logged coordinator actions
// at the windows they followed (log may be nil). The engine guarantees that
// a link's decisions depend neither on the worker count nor on which shard
// scored which window, so the live run must match this exactly. A link's
// decisions depend only on its own inputs and actions, so the links are
// split over `workers` single-worker engines that run side by side.
func reference(links []*linkInput, windows []int, fusion engine.FusionPolicy, log [][]action) ([][]decision, error) {
	out := make([][]decision, len(links))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		var group []int
		for i := g; i < len(links); i += workers {
			group = append(group, i)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = referenceGroup(links, group, windows, fusion, log, out)
		}(g)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// referenceGroup runs the sequential reference for the links in group,
// filling their entries of out.
func referenceGroup(links []*linkInput, group, windows []int, fusion engine.FusionPolicy, log [][]action, out [][]decision) error {
	if len(group) == 0 {
		return nil
	}
	idx := make(map[string]int, len(group))
	var e *engine.Engine
	var applyErr error
	e = engine.New(engine.Config{
		Workers:    1,
		WindowSize: windowSize,
		Fusion:     fusion,
		Adaptation: &adapt.Policy{},
		OnDecision: func(id string, d core.Decision) {
			li := idx[id]
			w := len(out[li])
			out[li] = append(out[li], decision{score: d.Score, present: d.Present})
			if log == nil {
				return
			}
			for _, a := range log[li] {
				if a.window == w {
					if err := applyAction(e, id, a); err != nil && applyErr == nil {
						applyErr = err
					}
				}
			}
		},
	})
	for _, i := range group {
		in := links[i]
		idx[in.id] = i
		out[i] = make([]decision, 0, windows[i])
		if err := e.AddLink(in.id, in.cfg, &loopSource{in: in, limit: windows[i]}); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, calPackets); err != nil {
		return fmt.Errorf("reference calibrate: %w", err)
	}
	if err := e.Run(ctx, 0); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	return applyErr
}

// windowFailures counts a run's failed windows: windows the run should have
// decided but did not (expected[i] per link), and decisions that differ
// from the reference.
func windowFailures(expected []int, live, ref [][]decision) int {
	lost := 0
	for i := range live {
		if d := expected[i] - len(live[i]); d > 0 {
			lost += d
		}
	}
	return lost + mismatches(live, ref)
}

// mismatches counts windows whose live decision differs from the reference
// (score bits or verdict), plus reference windows the live run lacks.
func mismatches(live, ref [][]decision) int {
	bad := 0
	for i := range live {
		n := len(live[i])
		if len(ref[i]) < n {
			bad += n - len(ref[i])
			n = len(ref[i])
		}
		for w := 0; w < n; w++ {
			a, b := live[i][w], ref[i][w]
			if a.present != b.present || math.Float64bits(a.score) != math.Float64bits(b.score) {
				bad++
			}
		}
	}
	return bad
}

// accuracyWindows is how many windows per link link_accuracy scores: a
// fixed prefix, so the figure depends on the seed only, not on how many
// windows a timed run happened to reach.
const accuracyWindows = 160

// linkAccuracy is the share of per-link decisions in the fixed prefix that
// match ground truth, transition windows excluded.
func linkAccuracy(links []*linkInput, live [][]decision) float64 {
	var ok, n int
	for i, in := range links {
		for w, d := range live[i] {
			if w >= accuracyWindows {
				break
			}
			occ, trans := in.label(w)
			if trans {
				continue
			}
			n++
			if d.present == occ {
				ok++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}
