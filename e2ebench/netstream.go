package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/csinet"
	"mlink/internal/engine"
	"mlink/internal/fleet"
	"mlink/internal/serve"
	"mlink/internal/supervise"
)

const (
	// netRate is net-stream's fixed per-link frame rate (frames/s): with
	// 8 links the site offers 8·netRate/25 windows/s, about a quarter of
	// the window rate replay-empty sustains on the reference host.
	netRate = 5000.0
	// The site: after netLeadWindows empty windows, link i's looped segment
	// has a person on it for netPresence windows starting at window
	// i·netSlot, so the fused verdict flips as the presence moves from link
	// to link, with the site empty in between. Someone arrives every
	// netSlot windows, which keeps the fleet coordinator from ever seeing
	// the long silent stretch it waits for before recalibrating a link.
	netLinks       = 8
	netLeadWindows = 12
	netSlot        = 8
	netSegWindows  = netLinks * netSlot
	netPresence    = 2
	// netLead is how long after the run starts the schedule's first frame
	// is due; netDrain how long the run continues after the last due frame.
	netLead  = 50 * time.Millisecond
	netDrain = 250 * time.Millisecond
)

// netPeriodNs is one window period on the net-stream schedule.
const netPeriodNs = int64(windowSize * time.Second / time.Duration(netRate))

// netWorkload is the open-loop workload.
type netWorkload struct{}

func (netWorkload) inputs(seed int64) ([]*linkInput, error) {
	return generateLinks(seed, netLinks, netLeadWindows, netSegWindows, netRate, func(i int) linkSpec {
		first := i * netSlot
		return linkSpec{
			scheme:   core.SchemeSubcarrier,
			occupied: func(w int) bool { return w >= first && w < first+netPresence },
		}
	})
}

// schedule is the open-loop clock every net-stream source follows: frame m
// of the monitoring stream is due at t0 + m/netRate, on every link.
type schedule struct {
	start    chan struct{} // closed once t0 and endFrame are set
	stop     chan struct{} // closed when the run stops
	stopOnce sync.Once
	t0       int64
	endFrame uint64 // frames with index < endFrame are due
}

func newSchedule() *schedule {
	return &schedule{start: make(chan struct{}), stop: make(chan struct{})}
}

func (s *schedule) due(m uint64) int64 { return s.t0 + int64(float64(m)*1e9/netRate) }

// dueWindow is when window w's last frame is due.
func (s *schedule) dueWindow(w int) int64 { return s.due(uint64(w*windowSize + windowSize - 1)) }

func (s *schedule) halt() { s.stopOnce.Do(func() { close(s.stop) }) }

// pacedSource serves a link's calibration frames at once, then its
// monitoring frames each at its due time. It never skips or merges frames:
// a late frame is sent as soon as it can be, and its lateness recorded.
// With a pool it hands out copies the engine recycles (in-process links);
// without one it hands out the segment's frames, which the csinet server
// copies onto the wire before asking for the next.
type pacedSource struct {
	in    *linkInput
	link  uint8
	sch   *schedule
	pool  *csi.FramePool
	k     uint64
	lags  []int64 // per monitoring frame: sent minus due, ns
	tr    *tracer
	spans *spanBuf
}

func (p *pacedSource) Next() (*csi.Frame, error) {
	var src *csi.Frame
	if nCal := uint64(len(p.in.cal)); p.k < nCal {
		src = p.in.cal[p.k]
	} else {
		m := p.k - nCal
		select {
		case <-p.sch.start:
		case <-p.sch.stop:
			return nil, io.EOF
		}
		if m >= p.sch.endFrame {
			<-p.sch.stop
			return nil, io.EOF
		}
		due := p.sch.due(m)
		if d := due - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sent := nowNs()
		p.lags = append(p.lags, sent-due)
		if m%windowSize == windowSize-1 && p.tr.on.Load() {
			p.spans.add(spanSourceNext, p.link, uint32(m/windowSize), due, sent)
		}
		src = p.in.frame(m)
	}
	f := src
	if p.pool != nil {
		f = p.pool.Get()
		copy(f.RSSI, src.RSSI)
		for a, row := range src.CSI {
			copy(f.CSI[a], row)
		}
	}
	stamp(f, p.k, p.in.rate)
	p.k++
	return f, nil
}

// Recycle implements engine.FrameRecycler.
func (p *pacedSource) Recycle(f *csi.Frame) {
	if p.pool != nil {
		p.pool.Put(f)
	}
}

// hubSource is the verdict source the hub encodes from. It records, per
// encode, how many complete rounds the verdict is guaranteed to contain
// (read before the verdict, so never more than it holds) and when the read
// began; the k-th successful read is the frame with SSE id k.
type hubSource struct {
	e       *engine.Engine
	s       *site
	credits []int64
	started []int64
	fuseBuf *spanBuf
}

func (h *hubSource) VerdictInto(v *engine.SiteVerdict) error {
	var credit int64
	if h.s.recs != nil {
		credit = h.s.minDecided()
	}
	t0 := nowNs()
	if err := h.e.VerdictInto(v); err != nil {
		return err
	}
	h.credits = append(h.credits, credit)
	h.started = append(h.started, t0)
	if h.s.tr.on.Load() {
		h.fuseBuf.add(spanFuse, roundLink, uint32(credit), t0, nowNs())
	}
	return nil
}

// tracedSink wraps the journal so the traced run can time AppendDelta.
type tracedSink struct {
	j   *fleet.Journal
	tr  *tracer
	buf *spanBuf
}

func (t *tracedSink) NewWriter() engine.JournalWriter {
	return &tracedWriter{w: t.j.NewWriter(), tr: t.tr, buf: t.buf}
}

// tracedWriter is called under the engine's journal lock, so its span
// buffer has one writer at a time.
type tracedWriter struct {
	w   engine.JournalWriter
	tr  *tracer
	buf *spanBuf
}

func (t *tracedWriter) AppendFull(id string, rec []byte) { t.w.AppendFull(id, rec) }
func (t *tracedWriter) Flush()                           { t.w.Flush() }
func (t *tracedWriter) AppendDelta(id string, rec []byte) {
	if !t.tr.on.Load() {
		t.w.AppendDelta(id, rec)
		return
	}
	t0 := nowNs()
	t.w.AppendDelta(id, rec)
	t.buf.add(spanJournalAppend, roundLink, 0, t0, nowNs())
}

// sseEvent is one verdict event the HTTP client read.
type sseEvent struct {
	at int64
	id uint64
}

// netSetup is one built open-loop stack.
type netSetup struct {
	e      *engine.Engine
	s      *site
	sch    *schedule
	srcs   []*pacedSource
	dir    string
	j      *fleet.Journal
	csrv   *csinet.Server
	cdone  chan struct{}
	redial *csinet.Redialer
	hub    *serve.Hub
	hsrc   *hubSource
	hs     *http.Server
	hdone  chan struct{}
	resp   *http.Response
	cancel context.CancelFunc
	fleetM sync.Mutex
	fv     engine.SiteVerdict
	coord  *fleet.Coordinator
	obsBuf *spanBuf
}

func (w netWorkload) setup(links []*linkInput, tr *tracer) (st *netSetup, err error) {
	st = &netSetup{sch: newSchedule(), cdone: make(chan struct{}), hdone: make(chan struct{})}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	tmp := filepath.Join(benchDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return st, err
	}
	if st.dir, err = os.MkdirTemp(tmp, "journal-"); err != nil {
		return st, err
	}
	if st.j, err = fleet.OpenJournal(st.dir, fleet.JournalConfig{}); err != nil {
		return st, err
	}

	// Link 0 streams over loopback TCP; links 1–7 are in-process.
	in0 := links[0]
	idx := make([]int16, len(in0.cfg.Grid.Indices))
	for i, v := range in0.cfg.Grid.Indices {
		idx[i] = int16(v)
	}
	hello := csinet.Hello{CenterFreqHz: in0.cfg.Grid.Center, NumAntennas: uint8(in0.seg[0].NumAntennas()),
		NumSubcarriers: uint8(in0.seg[0].NumSubcarriers()), Indices: idx}
	wire := &pacedSource{in: in0, sch: st.sch, tr: tr, spans: tr.buf()}
	st.srcs = append(st.srcs, wire)
	if st.csrv, err = csinet.NewServer("127.0.0.1:0", hello, func() csinet.Source { return wire }); err != nil {
		return st, err
	}
	go func() {
		defer close(st.cdone)
		_ = st.csrv.Serve(ctx)
	}()

	s := newSite(links, tr)
	st.s = s
	e := engine.New(engine.Config{
		Workers:     workers,
		WindowSize:  windowSize,
		Fusion:      engine.WeightedKOfN{K: 1},
		Adaptation:  &adapt.Policy{},
		Supervision: &supervise.Policy{},
		OnDecision:  s.onDecision,
	})
	st.e = e
	st.redial = csinet.Redial(st.csrv.Addr().String())
	if err := st.redial.Connect(ctx); err != nil {
		return st, err
	}
	if err := e.AddLink(in0.id, in0.cfg, st.redial); err != nil {
		return st, err
	}
	for i, in := range links[1:] {
		src := &pacedSource{in: in, link: uint8(i + 1), sch: st.sch, tr: tr, spans: tr.buf(),
			pool: csi.NewFramePool(in.seg[0].NumAntennas(), in.seg[0].NumSubcarriers())}
		st.srcs = append(st.srcs, src)
		if err := e.AddLink(in.id, in.cfg, src); err != nil {
			return st, err
		}
	}
	if _, err := st.j.Restore(e); err != nil {
		return st, err
	}
	if err := e.SetJournal(&tracedSink{j: st.j, tr: tr, buf: tr.buf()}); err != nil {
		return st, err
	}
	s.act = newDeferredActuator(e, s.idx)
	// The coordinator runs with its defaults except that it never
	// dispatches an online recalibration: a rebuild re-captures from the
	// live ingest ring, whose contents at that moment depend on timing, so
	// no reference could replay it. Suppressions and relocks still run and
	// are replayed.
	st.coord = fleet.New(fleet.Config{CooldownTicks: math.MaxInt}, s.act)
	if err := e.Calibrate(ctx, calPackets); err != nil {
		return st, fmt.Errorf("calibrate: %w", err)
	}

	st.hsrc = &hubSource{e: e, s: s, fuseBuf: tr.buf()}
	st.hub = serve.NewHub(st.hsrc, serve.HubOptions{})
	st.hub.Start()
	st.obsBuf = tr.buf()
	// The facade's round wiring: every len(links)-th decision, fuse a
	// verdict for the fleet coordinator, then nudge the hub.
	s.onRound = func() {
		st.fleetM.Lock()
		t0 := nowNs()
		err := e.VerdictInto(&st.fv)
		t1 := nowNs()
		if err == nil || errors.Is(err, engine.ErrAllQuarantined) {
			st.coord.Observe(&st.fv)
		}
		t2 := nowNs()
		if tr.on.Load() {
			st.obsBuf.add(spanFuse, roundLink, 0, t0, t1)
			st.obsBuf.add(spanObserve, roundLink, 0, t1, t2)
		}
		st.fleetM.Unlock()
		st.hub.Notify()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.hs = &http.Server{Handler: serve.NewServer(e, serve.Options{Hub: st.hub}).Handler()}
	go func() {
		defer close(st.hdone)
		_ = st.hs.Serve(ln)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+ln.Addr().String()+"/v1/stream", nil)
	if err != nil {
		return st, err
	}
	if st.resp, err = http.DefaultClient.Do(req); err != nil {
		return st, err
	}
	if st.resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("subscribe: %s", st.resp.Status)
	}
	return st, nil
}

// close tears a setup down and waits for everything it started.
func (st *netSetup) close() {
	st.sch.halt()
	if st.cancel != nil {
		st.cancel()
	}
	if st.resp != nil {
		st.resp.Body.Close()
	}
	if st.hs != nil {
		st.hs.Close()
		<-st.hdone
	}
	if st.hub != nil {
		st.hub.Close()
	}
	if st.csrv != nil {
		st.csrv.Close()
		<-st.cdone
	}
	if st.redial != nil {
		st.redial.Close()
	}
	if st.j != nil {
		st.j.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// eventFailures counts SSE events that are missing (an id gap: the hub
// dropped a frame for this subscriber) or out of order. Ids start at 1.
func eventFailures(events []sseEvent) int {
	bad := 0
	var prev uint64
	for _, ev := range events {
		if ev.id != prev+1 {
			bad++
		}
		prev = ev.id
	}
	return bad
}

// readEvents reads SSE verdict events until the stream ends.
func readEvents(body io.Reader, events *[]sseEvent, tr *tracer, buf *spanBuf) {
	br := bufio.NewReaderSize(body, 64<<10)
	var id uint64
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		switch {
		case bytes.HasPrefix(line, []byte("id: ")):
			id, _ = strconv.ParseUint(string(bytes.TrimSpace(line[4:])), 10, 64)
		case len(line) == 1:
			t := nowNs()
			*events = append(*events, sseEvent{at: t, id: id})
			if tr.on.Load() {
				buf.add(spanSSERead, roundLink, uint32(id), t, t)
			}
		}
	}
}

func (w netWorkload) run(seed int64, seconds float64, traced bool) (*outcome, error) {
	links, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	out := &outcome{props: describeInputs(links, fmt.Sprintf("%.0f frames/s per link, open loop", netRate)), tr: tr}
	var st *netSetup
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		settle()
		t0 := time.Now()
		if st, err = w.setup(links, tr); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	defer st.close()
	e, s, sch := st.e, st.s, st.sch

	total := warmup + time.Duration(seconds*float64(time.Second))
	frames := uint64(total.Seconds() * netRate)
	perLink := int(frames/windowSize) + 64
	s.arm(perLink)
	for _, src := range st.srcs {
		src.lags = make([]int64, 0, frames)
	}
	st.hsrc.credits = make([]int64, 0, perLink)
	st.hsrc.started = make([]int64, 0, perLink)
	events := make([]sseEvent, 0, perLink)
	sseDone := make(chan struct{})
	sseBuf := tr.buf()
	go func() {
		defer close(sseDone)
		readEvents(st.resp.Body, &events, tr, sseBuf)
	}()

	sch.t0 = nowNs() + int64(netLead)
	sch.endFrame = frames
	close(sch.start)
	ph, runErr := runPhases(sch.t0, netDrain, seconds, traced, tr, func(ctx context.Context) error {
		halted := make(chan struct{})
		go func() {
			<-ctx.Done()
			sch.halt()
			close(halted)
		}()
		err := e.Run(ctx, 0)
		<-halted
		return err
	}, func() int64 { return int64(s.decided.Load()) })
	if runErr != nil {
		return nil, fmt.Errorf("engine run: %w", runErr)
	}
	var m engine.Metrics
	e.MetricsInto(&m)
	var v engine.SiteVerdict
	verdictErr := e.VerdictInto(&v)
	st.hub.Close()
	st.resp.Body.Close()
	<-sseDone
	// The csinet stream goroutine wrote link 0's lags; wait it out.
	st.csrv.Close()
	<-st.cdone

	// Correctness: every due window scored and matching the reference
	// (with the coordinator's logged actions replayed), no engine or
	// actuator errors, no ingest drops, SSE ids gapless and in order.
	live := s.liveDecisions()
	windows := make([]int, len(links))
	dueWindows := int(frames / windowSize)
	expected := make([]int, len(links))
	var drops uint64
	for i, r := range s.recs {
		windows[i] = len(r.dec)
		expected[i] = dueWindows
		out.attempted += dueWindows
		drops += m.PerLink[i].SourceDrops
	}
	ref, err := reference(links, windows, engine.WeightedKOfN{K: 1}, s.act.log)
	if err != nil {
		return nil, err
	}
	out.failed += windowFailures(expected, live, ref) + int(s.act.errs.Load()) + int(drops) + eventFailures(events)
	out.accuracy = linkAccuracy(links, live)

	// End-to-end figures, timed from the schedule's due times.
	from := sch.t0 + int64(warmup)
	to := from + int64(seconds*1e9)
	if traced {
		to = ph.split.at
	}
	out.windows = int(ph.split.windows - ph.warm.windows)
	out.elapsed = float64(ph.split.at-ph.warm.at) / 1e9
	out.cpuPerWindow = float64(ph.split.cpu-ph.warm.cpu) / 1e3 / float64(out.windows)
	out.peakHeapMB = ph.peakHeapMB
	for _, r := range s.recs {
		for w, at := range r.decided {
			if d := sch.dueWindow(w); d >= from && d < to {
				out.decisions = append(out.decisions, timed{at: at, ms: float64(at-d) / 1e6})
			}
		}
	}
	for _, src := range st.srcs {
		for k, lag := range src.lags {
			if d := sch.due(uint64(k)); d >= from && d < to {
				out.lagMs = append(out.lagMs, float64(lag)/1e6)
			}
		}
	}
	reports := make([]report, len(events))
	for i, ev := range events {
		if ev.id >= 1 && ev.id <= uint64(len(st.hsrc.credits)) {
			reports[i] = report{at: ev.at, credit: st.hsrc.credits[ev.id-1]}
		}
	}
	due := make([]int64, dueWindows)
	for r := range due {
		due[r] = sch.dueWindow(r)
	}
	out.deliver(due, reports, from, to, netPeriodNs)

	if traced {
		l := engineLayers(&m, tr, ph)
		l["trace.overhead_share"] = ph.tracedCPU()/ph.untracedCPU() - 1
		lag := make([]float64, 0, len(out.lagMs))
		for _, src := range st.srcs {
			for k, x := range src.lags {
				if d := sch.due(uint64(k)); d >= ph.split.at && d < ph.end.at {
					lag = append(lag, float64(x)/1e6)
				}
			}
		}
		l["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
		l["csinet.reconnects"] = float64(m.PerLink[0].Reconnects)
		l["supervise.drops"] = float64(drops)
		l["fleet.journal_append_us"] = quantile(tr.durations(spanJournalAppend), 0.5)
		l["fleet.observe_us"] = quantile(tr.durations(spanObserve), 0.5)
		l["serve.encodes_per_round"] = float64(st.hub.Encodes()) / float64(st.hub.Rounds())
		l["serve.dropped"] = float64(st.hub.Dropped())
		l["serve.shed"] = float64(st.hub.Shed())
		var deliverUs []float64
		p := 0
		for r := range due {
			for p < len(reports) && reports[p].credit <= int64(r) {
				p++
			}
			if p == len(reports) {
				break
			}
			done := s.roundDone[r].Load()
			if due[r] >= ph.split.at && due[r] < ph.end.at && done > 0 {
				deliverUs = append(deliverUs, float64(reports[p].at-done)/1e3)
			}
		}
		l["serve.deliver_us_p50"] = quantile(deliverUs, 0.5)
		l["serve.deliver_us_p99"] = quantile(deliverUs, 0.99)
		if err := stagePass(links, l); err != nil {
			return nil, err
		}
		l["supervise.handoff_wait_us_p50"] = median(values(out.decisions))*1e3 - l["stage.score_observe_us"]
		if verdictErr != nil {
			return nil, fmt.Errorf("final verdict: %w", verdictErr)
		}
		if err := netStagePass(links, &v, filepath.Join(benchDir, "tmp"), l); err != nil {
			return nil, err
		}
		// Publish spans: verdict read to the SSE read of that frame.
		pub := tr.buf()
		for _, ev := range events {
			if ev.id >= 1 && ev.id <= uint64(len(st.hsrc.started)) && ev.at >= ph.split.at {
				pub.add(spanPublish, roundLink, uint32(ev.id), st.hsrc.started[ev.id-1], ev.at)
			}
		}
		out.layers = l
	}
	return out, nil
}
