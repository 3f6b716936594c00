package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/supervise"
)

// Engine errors.
var (
	// ErrNoLinks is returned by fleet-wide operations on an empty fleet.
	ErrNoLinks = errors.New("engine: no links")
	// ErrNotCalibrated is returned by Run when a link has no detector yet.
	ErrNotCalibrated = errors.New("engine: link not calibrated")
	// ErrRunning rejects fleet mutation while Run is active.
	ErrRunning = errors.New("engine: engine is running")
	// ErrNotRunning rejects operations that need an active Run (posting an
	// online recalibration to a stopped engine, for instance).
	ErrNotRunning = errors.New("engine: not running")
	// ErrDuplicateLink rejects reuse of a link ID.
	ErrDuplicateLink = errors.New("engine: duplicate link id")
	// ErrUnknownLink reports an ID that is not in the fleet.
	ErrUnknownLink = errors.New("engine: unknown link")
	// ErrRecalPending rejects a second recalibration of a link whose first
	// one has not completed yet.
	ErrRecalPending = errors.New("engine: recalibration already pending")
	// ErrNotAdaptive reports a fleet-control operation on a link that runs
	// without an adaptation loop.
	ErrNotAdaptive = errors.New("engine: link not adaptive")
	// ErrLinkDown reports an operation that needs frames from a link whose
	// supervised source is down (an online recalibration of a dead link,
	// for instance) — retry once the link recovers.
	ErrLinkDown = errors.New("engine: link source down")
)

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds the calibration pool and the number of scoring shards
	// (default GOMAXPROCS). Links start distributed over min(Workers, links)
	// long-lived shards and migrate between them through work stealing: a
	// shard whose links are all retired or starved takes a link from a
	// busy sibling instead of idling. Parallelism is still per link —
	// more workers than links buys nothing.
	Workers int
	// StaticAffinity disables work stealing: links stay on the shard they
	// were assigned to at Run start, as in the original static round-robin
	// scheduler. Scoring semantics are identical either way (each link's
	// windows are scored in stream order by exactly one shard at a time);
	// this switch exists for A/B comparison under skewed fleets — see
	// BenchmarkEngineSteadyStateSkewed.
	StaticAffinity bool
	// WindowSize is the monitoring window in packets (default 25, the
	// paper's operating point at 50 packets/s).
	WindowSize int
	// ThresholdQuantile and ThresholdMargin parameterize per-link threshold
	// calibration from held-out self scores (defaults 0.95 and 1.3, as the
	// facade uses).
	ThresholdQuantile float64
	ThresholdMargin   float64
	// Fusion combines per-link decisions into a site verdict (default
	// KOfN{K: 1}: any positive link trips the site).
	Fusion FusionPolicy
	// Adaptation, when non-nil, enables per-link online adaptation: every
	// calibrated link gets an adapt.Adapter that refreshes its profile on
	// silent windows, re-derives its threshold, and tracks drift health
	// (which quality-weighted fusion consumes). The zero Policy selects the
	// package defaults.
	Adaptation *adapt.Policy
	// OnDecision, when non-nil, is invoked from scoring shards after every
	// scored window. It must be safe for concurrent use and fast.
	OnDecision func(linkID string, d core.Decision)
	// Supervision, when non-nil, decouples ingestion from scoring: every
	// link gets a supervise.Supervisor whose producer goroutine pulls the
	// source into a bounded ring the shard consumes non-blockingly, so one
	// stalled or dead source can never stall its shard siblings. The
	// supervisor also tracks the link's lifecycle (Live/Stale/Down/
	// Recovering) — verdict fusion decays stale links and excludes down
	// ones — and redials reconnectable sources with jittered backoff. The
	// zero Policy selects the package defaults.
	Supervision *supervise.Policy
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 25
	}
	if c.ThresholdQuantile <= 0 || c.ThresholdQuantile > 1 {
		c.ThresholdQuantile = 0.95
	}
	if c.ThresholdMargin <= 0 {
		c.ThresholdMargin = 1.3
	}
	if c.Fusion == nil {
		c.Fusion = KOfN{K: 1}
	}
	return c
}

// link is one monitored TX–RX pair.
//
// The mutable fields are partitioned by owner rather than guarded by a
// mutex: det/adapter/meanMu are written only while e.calibrating (and read
// afterwards through the e.mu happens-before chain); win/scored/jrec/ewmaNs
// belong to whichever shard currently holds the link — the linkQueue's
// atomic handoff orders them between consecutive owners, so there is one
// writer at a time even as the link migrates; everything Verdict and
// Metrics need is published through state, which readers load without
// locking.
type link struct {
	id       string
	cfg      core.Config
	src      Source
	recycler FrameRecycler // non-nil when src pools its frames
	// sup, when supervision is enabled, owns the link's ingestion: the
	// shard consumes sup instead of src during Run (assigned by
	// ensureShards under e.mu, so the single-reader source contract moves
	// wholesale to the supervisor's producer goroutine). Its bell is
	// l.poke, so a producer that buffers the frames a starved window armed
	// for wakes the shard holding the link.
	sup *supervise.Supervisor
	// holder is the shard holding the link — set when Run seeds it, when a
	// thief steals it, and by whichever shard services its recalibration —
	// so poke knows whose wake channel to ring. A stale holder costs at
	// most one spurious wake-up; the parked shard's timer covers the rest.
	holder atomic.Pointer[shard]

	det *core.Detector
	// adapter is nil when adaptation is disabled. It is an atomic pointer —
	// not part of the owner partition — because the fleet layer's control
	// calls (SuppressRefresh, RelockLink) look it up from arbitrary
	// goroutines while an online recalibration on the owning shard may be
	// swapping it.
	adapter atomic.Pointer[adapt.Adapter]
	meanMu  float64

	// recal is the link's pending online-recalibration request. Posted from
	// any goroutine (under e.mu), claimed and executed by the shard holding
	// the link — the latch that lets Recalibrate run while Run is active
	// without a second writer ever touching the link's detector or adapter.
	recal atomic.Pointer[recalJob]
	// retired marks that the link is finished for the current Run (windows
	// quota met or stream ended) and is in no shard's queue. Posters read
	// it to route a new recal job through the revive queue instead.
	retired atomic.Bool
	// hinted dedupes the link's revive-queue entries (see reviveQueue).
	hinted atomic.Bool

	// win is the link's persistent window slab: one WindowSize-capacity
	// frame buffer reused for every tick of every Run — the replacement for
	// the old per-tick pool round trips.
	win    []*csi.Frame
	scored int
	// ewmaNs tracks the link's smoothed scoring cost (ns per window,
	// α = 1/8), published with each decision — the observability handle for
	// spotting the heavy link a shard is pinned on.
	ewmaNs float64

	// jrec is the link's reusable journal record buffer: emission
	// serializes into jrec and hands the bytes to the engine's writer,
	// which copies before the next tick reuses the buffer, so steady-state
	// journaling allocates nothing. Owned by the shard holding the link.
	jrec []byte

	// needFull asks the holding shard to journal a complete link record at
	// the link's next scored window — set whenever the full state changed
	// outside the journal's view (calibration, import, journal attach), so
	// every delta in the journal has a base record ahead of it.
	needFull bool

	state linkState
}

// recalJob is one posted online recalibration: the packet budget plus a
// completion channel the poster may wait on. err is written (at most once,
// by whichever side completes the job) before done is closed. waited marks
// a job a blocking Recalibrate caller is selecting on: those must be failed
// at Run exit so the caller unblocks, while fire-and-forget jobs
// (RequestRecalibration — the fleet scheduler) survive a Run boundary and
// execute at the next Run's first pass instead of being silently dropped.
type recalJob struct {
	n      int
	done   chan struct{}
	err    error
	waited bool
}

// shard is one long-lived scoring worker. It owns a scratch and a run queue
// of resident links (seeded round-robin by registration order at Run start);
// every per-window buffer it touches hangs off the link it is holding, so
// the steady-state loop shares no mutable state with other shards and takes
// no lock. When its queue runs dry it steals a resident link from a busy
// sibling (unless Config.StaticAffinity), so one heavy link can no longer
// serialize its queue-mates behind it. Shards persist across Runs so their
// scratches stay warm.
type shard struct {
	id int
	sc *core.Scratch
	// dq is the shard's run queue (see linkQueue); revived is scratch space
	// for draining the engine's revive queue.
	dq      linkQueue
	revived []*link
	// wake is the shard's one-slot doorbell: a supervised link's bell and a
	// posted recalibration send to it without blocking, and a parked shard
	// selects on it. timer is the reused safety-net timer of the same park,
	// for events that ring no bell (a sibling turning stealable, a link
	// going Down). The bell is what keeps latency low: a Go sleep shorter
	// than a millisecond really lasts about one when every P is idle, so a
	// shard parked on a sleep would hold a completed window for up to ~2 ms.
	wake  chan struct{}
	timer *time.Timer
	// Scheduler observability, read by MetricsInto while the run is live.
	windows       atomic.Uint64 // windows scored by this shard
	steals        atomic.Uint64 // links taken from a sibling's queue
	busyNs        atomic.Int64  // wall time spent scoring windows (vs polling/idling)
	parksWoken    atomic.Uint64 // parks ended by the wake channel
	parksTimedOut atomic.Uint64 // parks ended by the safety-net timer
}

// defaultParkMax caps an idle shard's safety-net park (Engine.parkMax).
const defaultParkMax = 2 * time.Millisecond

// park blocks the shard until its wake channel is rung, d elapses, or done
// closes. Allocation-free: the timer is reused.
func (sh *shard) park(done <-chan struct{}, d time.Duration) {
	sh.timer.Reset(d)
	select {
	case <-sh.wake:
		sh.parksWoken.Add(1)
	case <-sh.timer.C:
		sh.parksTimedOut.Add(1)
		return
	case <-done:
	}
	sh.timer.Stop()
}

// poke rings the wake channel of the shard holding l, without blocking:
// l's supervisor bell, and the nudge a posted recalibration gives it.
func (l *link) poke() {
	if sh := l.holder.Load(); sh != nil {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// Engine monitors a fleet of links concurrently.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	links   []*link
	byID    map[string]*link
	running bool
	// calibrating guards the whole span of Calibrate/Recalibrate (not just
	// their entry check): Run must not start while a calibration is still
	// pulling frames from a link's single-reader source.
	calibrating bool
	// journal, when non-nil, supplies the writer that receives every link's
	// full records and per-window deltas during Run (see SetJournal). jw is
	// that writer, created once per sink under e.mu; jmu serializes the
	// shards' appends to it so the journal file's record order is the global
	// emission order — the property crash recovery's cut consistency rests
	// on — even as links migrate between shards. The critical section is a
	// buffer append a few hundred bytes long once per scored window
	// (~100 µs of DSP), so the lock is uncontended in practice.
	journal  JournalSink
	jmu      sync.Mutex
	jw       JournalWriter
	runStart time.Time
	shards   []*shard
	// probe is ScoreWindow's scratch, reused across probes under mu.
	probe *core.Scratch

	// remaining counts the links not yet retired in the current Run; it
	// hitting zero is what ends the shard loops. revive carries hints that
	// a retired link has a posted recalibration (see reviveQueue).
	remaining atomic.Int64
	revive    reviveQueue

	windowsScored atomic.Uint64
	framesSeen    atomic.Uint64
	runNanos      atomic.Int64

	// parkMax caps an idle shard's safety-net park, which ramps up to it in
	// parkMax/20 steps: 100µs→2ms by default. A test that must not race the
	// timer raises it, so only a wake-up can end a park.
	parkMax time.Duration
}

// New builds an engine; zero-valued config fields take defaults.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{cfg: cfg, byID: make(map[string]*link), probe: core.NewScratch(), parkMax: defaultParkMax}
}

// WindowSize reports the effective monitoring window in packets.
func (e *Engine) WindowSize() int { return e.cfg.WindowSize }

// SetAdaptation installs (or, with nil, removes) the adaptation policy.
// It affects links calibrated afterwards — call it before Calibrate, or
// Recalibrate existing links to pick it up. Rejected while Run is active.
func (e *Engine) SetAdaptation(p *adapt.Policy) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running || e.calibrating {
		return ErrRunning
	}
	e.cfg.Adaptation = p
	return nil
}

// SetSupervision installs (or, with nil, removes) the link-source
// supervision policy; it takes effect at the next Run. Rejected while Run
// is active. Removing supervision drains any frames still buffered in the
// links' ingest rings back to their pooling sources.
func (e *Engine) SetSupervision(p *supervise.Policy) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running || e.calibrating {
		return ErrRunning
	}
	e.cfg.Supervision = p
	if p == nil {
		for _, l := range e.links {
			if l.sup != nil {
				l.sup.Flush()
				l.sup = nil
			}
		}
	}
	return nil
}

// AddLink registers a link under a unique ID. The source is owned by the
// engine from here on: calibration and monitoring both draw frames from it,
// always from a single goroutine at a time.
func (e *Engine) AddLink(id string, cfg core.Config, src Source) error {
	if id == "" {
		return fmt.Errorf("empty link id: %w", ErrUnknownLink)
	}
	if src == nil {
		return fmt.Errorf("link %s: nil source", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return ErrRunning
	}
	if _, ok := e.byID[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateLink, id)
	}
	l := &link{id: id, cfg: cfg, src: src}
	l.recycler, _ = src.(FrameRecycler)
	e.links = append(e.links, l)
	e.byID[id] = l
	return nil
}

// Links lists the fleet's link IDs in registration order.
func (e *Engine) Links() []string {
	return e.LinksInto(nil)
}

// LinksInto is Links appending into a caller-owned buffer (reset to length
// zero first), so a report loop can poll the fleet without allocating.
func (e *Engine) LinksInto(dst []string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	dst = dst[:0]
	for _, l := range e.links {
		dst = append(dst, l.id)
	}
	return dst
}

// pull reads n frames from a source, counting them into the metrics. A
// supervised source's non-blocking ErrNoFrame is absorbed by parking sh —
// the shard holding the link, whose wake channel the supervisor's bell
// rings — until the missing frames are buffered, since calibration
// genuinely needs them. A Down link fails fast with ErrLinkDown rather than
// hanging until ctx ends; the park's e.parkMax timer re-checks that, since a
// stalled source rings no bell. sh is nil when src is a raw source.
func (e *Engine) pull(ctx context.Context, sh *shard, src Source, dst []*csi.Frame, n int) ([]*csi.Frame, error) {
	for len(dst) < n {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		f, err := src.Next()
		if err != nil {
			sup, ok := src.(*supervise.Supervisor)
			if !ok || !errors.Is(err, supervise.ErrNoFrame) {
				return dst, err
			}
			if sup.Lifecycle() == adapt.LifecycleDown {
				return dst, fmt.Errorf("capture %d/%d frames: %w", len(dst), n, ErrLinkDown)
			}
			if !sup.Arm(n - len(dst)) {
				sh.park(ctx.Done(), e.parkMax)
			}
			continue
		}
		e.framesSeen.Add(1)
		dst = append(dst, f)
	}
	return dst, nil
}

// Calibrate calibrates every link in parallel on the worker pool: n
// profile frames plus n held-out frames are drawn from each link's source,
// a static profile and detector are built (§IV-C calibration stage), the
// decision threshold is set from the held-out self scores, and the link's
// mean multipath factor μ is recorded for the metrics block. n is raised to
// cover at least two self-score windows.
func (e *Engine) Calibrate(ctx context.Context, n int) error {
	e.mu.Lock()
	if e.running || e.calibrating {
		e.mu.Unlock()
		return ErrRunning
	}
	e.calibrating = true
	links := append([]*link(nil), e.links...)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.calibrating = false
		e.mu.Unlock()
	}()
	if len(links) == 0 {
		return ErrNoLinks
	}
	n = e.normalizeCalPackets(n)
	return e.forEach(ctx, links, func(ctx context.Context, l *link) error {
		if l.sup != nil {
			// Offline calibration draws from the raw source; frames a past
			// Run left buffered in the ingest ring would otherwise be
			// replayed against the fresh baseline.
			l.sup.Flush()
		}
		if err := e.calibrateLink(ctx, nil, l, n, l.src); err != nil {
			return err
		}
		clearStaleRecal(l)
		return nil
	})
}

// clearStaleRecal completes a fire-and-forget recalibration left over from a
// previous Run once an offline rebuild has just made it redundant. Only
// called from the offline calibration paths (engine not running), so it
// cannot race a shard execution.
func clearStaleRecal(l *link) {
	if job := l.recal.Swap(nil); job != nil {
		close(job.done)
	}
}

// forEach runs fn over links with at most cfg.Workers in flight; it waits
// for all and returns the first error.
func (e *Engine) forEach(ctx context.Context, links []*link, fn func(context.Context, *link) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, e.cfg.Workers)
	errs := make(chan error, len(links))
	var wg sync.WaitGroup
	for _, l := range links {
		wg.Add(1)
		go func(l *link) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs <- ctx.Err()
				return
			}
			defer func() { <-sem }()
			if err := fn(ctx, l); err != nil {
				errs <- fmt.Errorf("link %s: %w", l.id, err)
				cancel()
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return ctx.Err()
}

// calibrateLink rebuilds one link's detector state from 2n fresh frames
// drawn from src — the raw source for offline calibration (sh nil), the
// link's supervisor during an online (mid-Run) recalibration on shard sh,
// where the producer goroutine owns the raw source.
func (e *Engine) calibrateLink(ctx context.Context, sh *shard, l *link, n int, src Source) error {
	cal, err := e.pull(ctx, sh, src, make([]*csi.Frame, 0, n), n)
	if err != nil {
		return fmt.Errorf("calibration capture: %w", err)
	}
	profile, err := core.Calibrate(l.cfg, cal)
	if err != nil {
		return err
	}
	det, err := core.NewDetector(l.cfg, profile)
	if err != nil {
		return err
	}
	holdout, err := e.pull(ctx, sh, src, make([]*csi.Frame, 0, n), n)
	if err != nil {
		return fmt.Errorf("holdout capture: %w", err)
	}
	null, err := det.SelfScores(holdout, e.cfg.WindowSize, e.cfg.WindowSize)
	if err != nil {
		return err
	}
	if _, err := det.CalibrateThreshold(null, e.cfg.ThresholdQuantile, e.cfg.ThresholdMargin); err != nil {
		return err
	}
	// A RE-calibration floors the fresh threshold at the link's previous
	// operational one. The fresh estimate rests on a dozen null windows —
	// a capture that happens to ride a quiet stretch of the receiver's
	// slow gain wander produces a threshold the very next minutes alarm
	// over — while the outgoing threshold distils every null the link has
	// scored since deployment. Scores are relative statistics (dB-domain
	// distances), so the old threshold remains meaningful across the gain
	// steps and baseline shifts that prompted the rebuild.
	if l.det != nil {
		if prev := l.det.Threshold(); prev > det.Threshold() {
			det.SetThreshold(prev)
		}
	}
	meanMu, err := linkMeanMu(cal, l.cfg)
	if err != nil {
		return err
	}
	var adapter *adapt.Adapter
	if e.cfg.Adaptation != nil {
		adapter, err = adapt.NewAdapter(*e.cfg.Adaptation, det, null)
		if err != nil {
			return fmt.Errorf("adaptation: %w", err)
		}
	}
	// Holdout frames are done; calibration frames may be recycled only when
	// sanitization is on (otherwise the profile retains them directly).
	l.recycleFrames(holdout)
	if l.cfg.Sanitize {
		l.recycleFrames(cal)
	}
	l.det = det
	l.adapter.Store(adapter)
	l.meanMu = meanMu
	l.needFull = true
	health := adapt.Health{}
	if adapter != nil {
		health = adapter.Health()
	}
	l.state.publishCalibration(meanMu, det.Threshold(), adapter != nil, health)
	return nil
}

// normalizeCalPackets raises a calibration packet budget to the floors
// Calibrate applies (two self-score windows, 50 packets minimum).
func (e *Engine) normalizeCalPackets(n int) int {
	if n < 2*e.cfg.WindowSize {
		n = 2 * e.cfg.WindowSize
	}
	if n < 50 {
		n = 50
	}
	return n
}

// Recalibrate rebuilds one link's profile, threshold and (when enabled)
// adapter from a fresh empty-room capture — the recovery path for a link
// whose adaptation health reports NeedsRecalibration after a step change
// (furniture moved, antenna bumped). The caller is asserting the room is
// empty again, exactly as for the initial Calibrate.
//
// While Run is active the recalibration happens online: the request is
// posted to the link, and the shard currently holding it claims and
// executes the rebuild at the link's next turn — sibling links keep scoring
// throughout — while Recalibrate blocks until that rebuild completes or ctx
// ends. A link already retired this Run (quota met or stream ended) is
// revived for the rebuild: any shard picks the job up from the revive
// queue, so late recalibrations are serviced instead of rejected. An
// unknown link returns ErrUnknownLink in every engine state (consistent
// with ScoreWindow); ErrRunning is returned only when a fleet-wide
// Calibrate is still in flight, and ErrRecalPending when the link already
// has an unfinished online recalibration.
func (e *Engine) Recalibrate(ctx context.Context, linkID string, n int) error {
	n = e.normalizeCalPackets(n)
	e.mu.Lock()
	l, ok := e.byID[linkID]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	if e.calibrating {
		e.mu.Unlock()
		return ErrRunning
	}
	if e.running {
		job := &recalJob{n: n, done: make(chan struct{}), waited: true}
		if err := e.postRecal(l, job); err != nil {
			e.mu.Unlock()
			return fmt.Errorf("link %s: %w", linkID, err)
		}
		e.mu.Unlock()
		select {
		case <-job.done:
			if job.err != nil {
				return fmt.Errorf("link %s: %w", linkID, job.err)
			}
			return nil
		case <-ctx.Done():
			// The job stays posted; the shard that claims it (or the
			// run-exit sweep) completes it without this caller.
			return ctx.Err()
		}
	}
	e.calibrating = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.calibrating = false
		e.mu.Unlock()
	}()
	if l.sup != nil {
		l.sup.Flush()
	}
	if err := e.calibrateLink(ctx, nil, l, n, l.src); err != nil {
		return fmt.Errorf("link %s: %w", linkID, err)
	}
	clearStaleRecal(l)
	return nil
}

// RequestRecalibration posts an online recalibration without waiting for it:
// the shard holding the link rebuilds its profile at the link's next turn
// (a retired link is revived through the revive queue), with the outcome
// observable through the link's published health and metrics. This is the
// entry point the fleet coordinator schedules staggered fleet
// recalibrations through. Only valid while Run is active.
func (e *Engine) RequestRecalibration(linkID string, n int) error {
	n = e.normalizeCalPackets(n)
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.byID[linkID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	if !e.running {
		return fmt.Errorf("link %s: %w", linkID, ErrNotRunning)
	}
	if err := e.postRecal(l, &recalJob{n: n, done: make(chan struct{})}); err != nil {
		return fmt.Errorf("link %s: %w", linkID, err)
	}
	return nil
}

// postRecal installs a recalibration job on a running link. Under e.mu.
//
// The pending check reads the recal slot AND the published Recalibrating
// flag: serviceRecal raises the flag before claiming (emptying) the slot
// and lowers it only after the rebuild, so with sequentially consistent
// atomics there is no instant at which a rebuild is in flight and both
// reads come back clear — a second job can never be accepted while one
// executes, which is what makes serviceRecal's executor unique.
func (e *Engine) postRecal(l *link, job *recalJob) error {
	if l.state.recalibrating() || !l.recal.CompareAndSwap(nil, job) {
		return ErrRecalPending
	}
	if l.retired.Load() {
		// The link is in no shard's queue; hint the job to whichever shard
		// drains the revive queue next. Ordering: the job is posted before
		// this load, and retire() pushes its own hint after storing retired,
		// so whichever side of the race runs second sees the other — the
		// job cannot be stranded.
		e.revive.push(l)
	}
	// The holder (for a revive hint, the shard that retired the link) may
	// be parked; wake it so the job starts now, not when its timer ends.
	l.poke()
	return nil
}

// RecalibrationPending reports whether linkID has a recalibration posted or
// executing — the fleet coordinator's staggering signal: the next scheduled
// rebuild is dispatched only once this turns false for the previous one.
// Unknown links report false.
func (e *Engine) RecalibrationPending(linkID string) bool {
	e.mu.Lock()
	l, ok := e.byID[linkID]
	e.mu.Unlock()
	if !ok {
		return false
	}
	if l.recal.Load() != nil {
		return true
	}
	var snap linkSnap
	l.state.load(&snap)
	return snap.Recalibrating
}

// adapterOf resolves a link's adapter for a fleet-control operation.
func (e *Engine) adapterOf(linkID string) (*adapt.Adapter, error) {
	e.mu.Lock()
	l, ok := e.byID[linkID]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	ad := l.adapter.Load()
	if ad == nil {
		return nil, fmt.Errorf("link %s: %w", linkID, ErrNotAdaptive)
	}
	return ad, nil
}

// SuppressRefresh holds off (or resumes) a link's profile refreshes — the
// fleet layer raises it while it attributes the link's drift to a localized
// perturbation (likely a person) that must not be absorbed into the
// baseline. Safe to call while Run is active; takes effect at the link's
// next scored window.
func (e *Engine) SuppressRefresh(linkID string, on bool) error {
	ad, err := e.adapterOf(linkID)
	if err != nil {
		return err
	}
	ad.SetRefreshSuppressed(on)
	return nil
}

// RelockLink asks a link's adapter to adopt its next window wholesale as the
// new baseline, clearing any quarantine — the fleet layer's ambient-drift
// recovery, invoked when correlated evidence across the site shows the shift
// is environmental rather than human. Safe to call while Run is active.
func (e *Engine) RelockLink(linkID string) error {
	ad, err := e.adapterOf(linkID)
	if err != nil {
		return err
	}
	ad.RequestRelock()
	return nil
}

// linkMeanMu averages the mean multipath factor over up to 25 calibration
// frames — the §IV-A deployment-assessment metric surfaced per link in the
// metrics block.
func linkMeanMu(frames []*csi.Frame, cfg core.Config) (float64, error) {
	const maxFrames = 25
	if len(frames) > maxFrames {
		frames = frames[:maxFrames]
	}
	ant := 0
	if frames[0].NumAntennas() > 1 {
		ant = 1
	}
	sc := core.NewScratch()
	mu := make([]float64, cfg.Grid.Len())
	var acc float64
	for _, f := range frames {
		if err := sc.MultipathFactorsInto(mu, f.CSI[ant], cfg.Grid); err != nil {
			return 0, fmt.Errorf("assess: %w", err)
		}
		m, err := core.MeanMultipathFactor(mu)
		if err != nil {
			return 0, fmt.Errorf("assess: %w", err)
		}
		acc += m
	}
	return acc / float64(len(frames)), nil
}

// ensureShards (re)builds the shard set for the current fleet under e.mu.
// Shard structs and their scratches persist across Runs — only the link
// distribution is refreshed (round-robin seed; stealing rebalances from
// there) — so a warmed-up engine re-enters its steady state without
// reallocating anything.
func (e *Engine) ensureShards() {
	n := e.cfg.Workers
	if n > len(e.links) {
		n = len(e.links)
	}
	if len(e.shards) != n {
		shards := make([]*shard, n)
		for i := range shards {
			if i < len(e.shards) {
				shards[i] = e.shards[i]
			} else {
				t := time.NewTimer(e.parkMax)
				t.Stop()
				shards[i] = &shard{id: i, sc: core.NewScratch(), wake: make(chan struct{}, 1), timer: t}
			}
		}
		e.shards = shards
	}
	for _, sh := range e.shards {
		// Queues are sized for the whole fleet: stealing can migrate every
		// link onto one shard.
		sh.dq.reset(len(e.links))
	}
	e.revive.reset(len(e.links))
	e.remaining.Store(int64(len(e.links)))
	if e.journal != nil && e.jw == nil {
		e.jw = e.journal.NewWriter()
	}
	for i, l := range e.links {
		sh := e.shards[i%n]
		l.scored = 0
		l.retired.Store(false)
		l.hinted.Store(false)
		l.holder.Store(sh)
		if cap(l.win) < e.cfg.WindowSize {
			l.win = make([]*csi.Frame, 0, e.cfg.WindowSize)
		}
		if len(l.win) > 0 {
			// A cancelled supervised run can leave a part-assembled window;
			// recycle it rather than scoring stale frames a Run later.
			l.recycleFrames(l.win)
			l.win = l.win[:0]
		}
		if e.cfg.Supervision != nil {
			if l.sup == nil {
				pol := *e.cfg.Supervision
				// Decorrelate the per-link backoff jitter streams: links
				// sharing one seed would redial a restarted collector in
				// exact unison, defeating the jitter.
				pol.Seed += int64(i)
				l.sup = supervise.New(l.id, pol, l.src, l.recycler)
				l.sup.SetBell(l.poke)
			}
		} else if l.sup != nil {
			l.sup.Flush()
			l.sup = nil
		}
		sh.dq.push(l)
	}
	// Warm every shard's scratch for every link's kernel: stealing can
	// migrate any link onto any shard, and a heavy link's first window on a
	// cold holder would otherwise pay a one-time buffer growth mid
	// steady-state (the stray bytes/op the Skewed benchmark used to record).
	// Pure sizing, no compute — on a warmed engine this is a no-op.
	for _, sh := range e.shards {
		for _, l := range e.links {
			if l.det == nil {
				continue
			}
			if prof := l.det.Profile(); prof != nil && len(prof.MeanAmp) > 0 {
				l.det.Kernel().WarmScratch(sh.sc, len(prof.MeanAmp), e.cfg.WindowSize)
			}
		}
	}
}

// Run monitors the whole fleet until every link has scored windowsPerLink
// windows (0 = until its source ends or ctx is cancelled). Links are seeded
// round-robin onto min(Workers, links) persistent shards and rebalance from
// there by work stealing: a shard whose queue runs dry (links retired,
// starved, or stolen) takes a link from a busy sibling instead of idling,
// so a fleet with one heavy link or one retiring early keeps every worker
// busy. Each link is still advanced one window at a time by exactly one
// shard — the queues hand a link off whole — so every link's windows are
// scored in stream order and its decision sequence is bit-identical
// whatever the shard count or migration history (see
// TestEngineStealingMatchesSequential). Every link must be calibrated
// first.
//
// A source that blocks in Next still stalls whichever shard is driving it
// for the duration of one window, so fleets fed by blocking sources
// (csinet) should enable Config.Supervision, which moves every source
// behind a per-link ingest ring the shards consume non-blockingly; stealing
// then keeps the remaining shards saturated with whatever links have frames
// buffered, and a shard whose supervised links are all starved parks until
// the producer that completes one of their windows wakes it.
func (e *Engine) Run(ctx context.Context, windowsPerLink int) error {
	e.mu.Lock()
	if e.running || e.calibrating {
		e.mu.Unlock()
		return ErrRunning
	}
	if len(e.links) == 0 {
		e.mu.Unlock()
		return ErrNoLinks
	}
	for _, l := range e.links {
		if l.det == nil {
			e.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNotCalibrated, l.id)
		}
	}
	e.ensureShards()
	e.running = true
	e.runStart = time.Now()
	shards := e.shards
	var sups []*supervise.Supervisor
	if e.cfg.Supervision != nil {
		sups = make([]*supervise.Supervisor, 0, len(e.links))
		for _, l := range e.links {
			sups = append(sups, l.sup)
		}
	}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.runNanos.Add(int64(time.Since(e.runStart)))
		e.running = false
		// A recalibration a blocking caller is waiting on must fail now so
		// the caller unblocks; a fire-and-forget job (the fleet scheduler's)
		// stays posted and executes at the next Run's first pass — dropping
		// it would silently cancel a scheduled rebuild the coordinator
		// already counts as dispatched. The shards have all exited by now,
		// so the swap cannot race an execution in flight.
		for _, l := range e.links {
			if job := l.recal.Load(); job != nil && job.waited {
				l.recal.Store(nil)
				job.err = fmt.Errorf("run ended before recalibration: %w", ErrNotRunning)
				close(job.done)
			}
		}
		e.mu.Unlock()
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Supervised ingestion starts first so the shards find frames buffering
	// already, and is torn down last (after every shard has stopped
	// consuming): cancel unblocks the producers, Wait joins them.
	for i, s := range sups {
		if err := s.Start(ctx); err != nil {
			cancel()
			for _, p := range sups[:i] {
				p.Wait()
			}
			return err
		}
	}
	defer func() {
		cancel()
		for _, s := range sups {
			s.Wait()
		}
	}()

	// First-error recorder: shards may fail any number of times, so errors
	// fold into one slot rather than a channel that could fill and block.
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		if err == nil || errors.Is(err, context.Canceled) {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			e.runShard(ctx, sh, shards, windowsPerLink, fail)
		}(sh)
	}
	wg.Wait()
	// Hand the buffered journal records to the sink, so the journal's
	// durable state trails a finished or cancelled run by at most the sync
	// cadence. (Each link already flushed when it retired; this picks up
	// records a cancellation interrupted.)
	if e.jw != nil {
		e.jmu.Lock()
		e.jw.Flush()
		e.jmu.Unlock()
	}
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// runShard is one worker's scheduling loop: take the oldest resident link
// from the shard's queue, drive it one step (a scored window or a claimed
// recalibration), push it back — FIFO, so residents advance round-robin.
// When the queue runs dry the shard steals a resident from a busy sibling
// (unless Config.StaticAffinity) and adopts it; when nothing is stealable,
// or every resident is a starved supervised link, it parks. A park ends as
// soon as something rings the shard's wake channel — the bell of a starved
// link whose window's frames are now buffered, or a posted recalibration —
// and otherwise after a safety-net timeout ramping from 100µs to 2ms, for
// events that ring no bell (a sibling turning stealable). Between takes it
// services revive-queue hints (recalibrations posted to links already
// retired). The loop ends when every link in the fleet has retired or the
// context does — shards no longer exit early when "their" links finish,
// because links are no longer theirs.
//
// The loop owns all the state it touches while holding a link — the link's
// slab, detector and journal buffer, the shard scratch — handed off through
// the queue's atomics, so the steady state runs without locks or
// allocations.
func (e *Engine) runShard(ctx context.Context, sh *shard, shards []*shard, windowsPerLink int, fail func(error)) {
	done := ctx.Done()
	var idle time.Duration
	var futile int64
	for e.remaining.Load() > 0 {
		select {
		case <-done:
			return
		default:
		}
		if e.revive.count.Load() != 0 {
			sh.revived = e.revive.drain(sh.revived[:0])
			for _, l := range sh.revived {
				if e.serviceRecal(ctx, sh, l) {
					futile, idle = 0, 0
				}
			}
		}
		l := sh.dq.take()
		if l == nil && !e.cfg.StaticAffinity {
			if l = e.steal(sh, shards); l != nil {
				sh.steals.Add(1)
				l.holder.Store(sh)
			}
		}
		if l == nil {
			// Nothing resident and nothing stealable: every live link is in
			// flight on another shard or the fleet is retiring. Park rather
			// than spin; the loop-top done check absorbs the shutdown.
			if idle < e.parkMax {
				idle += e.parkMax / 20
			}
			sh.park(done, idle)
			continue
		}
		progressed, keep, err := e.advance(ctx, done, sh, l, windowsPerLink)
		if err != nil {
			fail(fmt.Errorf("link %s: %w", l.id, err))
			return
		}
		if keep {
			sh.dq.push(l)
		}
		if progressed {
			futile, idle = 0, 0
			continue
		}
		// A starved link (empty ingest ring) went back to the queue without
		// work, its bell armed for the rest of its window. Only once a whole
		// round of takes is futile — every resident starved and armed — does
		// the shard park, until the first of those bells rings.
		futile++
		if futile > sh.dq.size() {
			if idle < e.parkMax {
				idle += e.parkMax / 20
			}
			sh.park(done, idle)
			futile = 0
		}
	}
	// The fleet has retired and the run is completing normally; pick up any
	// late revive hints so a blocking Recalibrate caller isn't left for the
	// run-exit sweep to fail when the job could simply be serviced.
	if ctx.Err() == nil {
		sh.revived = e.revive.drain(sh.revived[:0])
		for _, l := range sh.revived {
			e.serviceRecal(ctx, sh, l)
		}
	}
}

// steal takes one resident link from a sibling shard's queue, scanning
// round-robin from the thief's successor. Victims keep their last resident
// (size < 2 is skipped): stealing a shard's only link would just ping-pong
// it between queues, and a single serial link can't be sped up anyway.
func (e *Engine) steal(sh *shard, shards []*shard) *link {
	for k := 1; k < len(shards); k++ {
		v := shards[(sh.id+k)%len(shards)]
		if v.dq.size() < 2 {
			continue
		}
		if l := v.dq.take(); l != nil {
			return l
		}
	}
	return nil
}

// advance drives one held link a single step: claim and execute its posted
// recalibration, or score one window. It reports whether the link made
// progress (the shard's backoff signal), whether it stays in rotation, and
// a fatal stream error if any.
func (e *Engine) advance(ctx context.Context, done <-chan struct{}, sh *shard, l *link, windowsPerLink int) (progressed, keep bool, err error) {
	// A posted recalibration runs here, on the shard currently holding the
	// link, so the detector and adapter keep exactly one writer. It
	// replaces this turn's window for this link only — every other link,
	// on this shard and its siblings, keeps scoring. A link that has
	// already met its windows quota honors the request too, via the revive
	// queue rather than this path.
	if l.recal.Load() != nil {
		e.serviceRecal(ctx, sh, l)
		return true, true, nil
	}
	res, err := e.tick(done, sh, l)
	if err != nil {
		return false, false, err
	}
	switch res {
	case tickScored:
		sh.windows.Add(1)
		l.scored++
		if windowsPerLink > 0 && l.scored >= windowsPerLink {
			e.retire(l)
			return true, false, nil
		}
		return true, true, nil
	case tickEnded:
		e.retire(l)
		return false, false, nil
	default: // tickStarved
		// Supervised link with an empty ring: back into the queue, its
		// queue-mates keep scoring — the whole point of the rings.
		return false, true, nil
	}
}

// retire takes a finished link out of rotation for the rest of the Run:
// quota met or stream ended. The remaining count hitting zero is what ends
// the shard loops. The link's journal trail is flushed now — in an
// unbounded run no later flush would come — and a recalibration that raced
// the retirement is hinted to the revive queue (see postRecal for why at
// least one side always pushes).
func (e *Engine) retire(l *link) {
	l.retired.Store(true)
	e.remaining.Add(-1)
	if e.jw != nil {
		e.jmu.Lock()
		e.jw.Flush()
		e.jmu.Unlock()
	}
	if l.recal.Load() != nil {
		e.revive.push(l)
	}
}

// serviceRecal claims and executes l's posted recalibration, if any: the
// link's stream is drained into a fresh calibration capture and the
// detector, adapter and published state are rebuilt in place. While it
// runs, the link's published state carries the Recalibrating flag, so
// verdict fusion excludes the link (it has no current opinion) instead of
// reusing its stale last decision. A failed rebuild keeps the old detector
// — calibrateLink swaps state in only on success — and reports through the
// job, never by killing the run.
//
// The executor is unique per job: for a live link only the holding shard
// gets here (queue ownership), and for a retired link only one shard drains
// the link's deduplicated revive hint. Raising the Recalibrating flag
// BEFORE emptying the recal slot closes the loop — postRecal checks both,
// so no second job (whose executor could overlap this one) is accepted
// until the flag drops after the rebuild. The claim CAS is defensive depth,
// not the uniqueness argument.
func (e *Engine) serviceRecal(ctx context.Context, sh *shard, l *link) bool {
	job := l.recal.Load()
	if job == nil {
		return false
	}
	l.state.setRecalibrating(true)
	if !l.recal.CompareAndSwap(job, nil) {
		l.state.setRecalibrating(false)
		return false
	}
	src := l.src
	if l.sup != nil {
		// The producer goroutine owns the raw source while Run is active, so
		// the rebuild draws through the supervisor's ring. The backlog the
		// ring holds predates this request — under the facade it can even
		// predate the occupied→empty monitoring switch — so shed it and
		// calibrate on frames captured from here on.
		l.sup.Flush()
		src = l.sup
		// sh parks on the ring's bell while it draws; a revived link's
		// last holder may be another shard.
		l.holder.Store(sh)
	}
	job.err = e.calibrateLink(ctx, sh, l, job.n, src)
	// A successful rebuild is journaled immediately as a full record — the
	// walked baseline the deltas were building on just got replaced, so a
	// crash between here and the link's next scored window must not resume
	// onto the superseded one.
	if job.err == nil {
		e.jmu.Lock()
		e.journalFull(l)
		e.jmu.Unlock()
	}
	l.state.setRecalibrating(false)
	close(job.done)
	return true
}

// journalFull serializes a complete link record into the link's buffer and
// hands it to the journal writer, clearing the needFull mark. Called with
// e.jmu held. A serialization failure keeps the mark so the next scored
// window retries; with no writer the mark survives for a future journaled
// Run.
func (e *Engine) journalFull(l *link) {
	if e.jw == nil {
		return
	}
	rec, err := appendLinkRecord(l.jrec[:0], l)
	if err != nil {
		return
	}
	l.jrec = rec
	e.jw.AppendFull(l.id, rec)
	l.needFull = false
}

// tickResult is one tick's outcome for the shard loop.
type tickResult int

const (
	// tickScored: a full window was assembled and scored.
	tickScored tickResult = iota
	// tickStarved: a supervised link had no frame buffered; the partial
	// window stays in the link's slab and assembly resumes next pass.
	tickStarved
	// tickEnded: the link's stream ended (EOF, cancellation, or an error —
	// reported alongside).
	tickEnded
)

// tick pulls and scores one window for a link: assemble into the link's
// slab, score against its detector with the shard scratch, let the adapter
// observe, recycle the frames, publish the decision. done is polled between
// frames — a non-blocking channel read, a few ns — so cancellation lands
// mid-window even on slow real-time sources, not a whole queue round later.
// A supervised link draws from its ingest ring and never blocks: an empty
// ring parks the partial window in l.win (kept across turns, following the
// link if it migrates), arms the supervisor's bell for the frames the
// window still lacks, and returns tickStarved so the shard moves on to its
// queue-mates.
func (e *Engine) tick(done <-chan struct{}, sh *shard, l *link) (tickResult, error) {
	src := l.src
	if l.sup != nil {
		src = l.sup
	}
	for len(l.win) < e.cfg.WindowSize {
		select {
		case <-done:
			e.framesSeen.Add(uint64(len(l.win)))
			l.recycleFrames(l.win)
			l.win = l.win[:0]
			return tickEnded, nil
		default:
		}
		f, err := src.Next()
		if err != nil {
			if errors.Is(err, supervise.ErrNoFrame) {
				if l.sup.Arm(e.cfg.WindowSize - len(l.win)) {
					continue // buffered since Next looked, or ended
				}
				return tickStarved, nil
			}
			e.framesSeen.Add(uint64(len(l.win)))
			l.recycleFrames(l.win)
			l.win = l.win[:0]
			if errors.Is(err, io.EOF) || errors.Is(err, context.Canceled) {
				return tickEnded, nil
			}
			return tickEnded, err
		}
		l.win = append(l.win, f)
	}
	e.framesSeen.Add(uint64(len(l.win)))

	t0 := time.Now()
	dec, err := l.det.DetectScratch(l.win, sh.sc)
	adapter := l.adapter.Load()
	var health adapt.Health
	if err == nil && adapter != nil {
		// The adapter measures a refresh window from the frames sh.sc
		// just sanitized for the score, so each window is prepared once.
		health, err = adapter.ObserveScored(sh.sc, dec)
	}
	l.recycleFrames(l.win)
	l.win = l.win[:0]
	if err != nil {
		return tickEnded, err
	}
	// Smooth the window's scoring cost into the link's EWMA (α = 1/8) —
	// published with the decision, so operators can see which link the
	// heavy DSP lives on and why it migrates. The same sample feeds the
	// shard's busy-time counter: scoring dominates a shard's useful work,
	// and timing only scored windows keeps the starved-poll path free of
	// clock calls.
	elapsed := time.Since(t0)
	sh.busyNs.Add(int64(elapsed))
	dt := float64(elapsed)
	if l.ewmaNs == 0 {
		l.ewmaNs = dt
	} else {
		l.ewmaNs += (dt - l.ewmaNs) * 0.125
	}
	threshold := dec.Threshold
	if adapter != nil {
		threshold = health.Threshold
	}
	l.state.publishDecision(dec, threshold, health, l.ewmaNs)
	e.windowsScored.Add(1)
	if cb := e.cfg.OnDecision; cb != nil {
		cb(l.id, dec)
	}
	if e.jw != nil {
		e.jmu.Lock()
		if l.needFull {
			e.journalFull(l)
		}
		if adapter != nil {
			l.jrec = adapter.AppendDelta(l.jrec[:0])
			e.jw.AppendDelta(l.id, l.jrec)
		}
		e.jmu.Unlock()
	}
	return tickScored, nil
}

// recycleFrames hands a scored window's frames back to a pooling source.
// Safe after scoring: the detector's profile never retains monitoring
// frames (the sanitize path copies into scratch-owned buffers, and the raw
// path only reads).
func (l *link) recycleFrames(frames []*csi.Frame) {
	if l.recycler == nil {
		return
	}
	for _, f := range frames {
		l.recycler.Recycle(f)
	}
}

// ScoreWindow synchronously scores one externally assembled window on the
// named link — for tests and ad-hoc probes. It is rejected while Run or a
// calibration is active: the link's detector, adapter and published state
// have exactly one writer at a time.
func (e *Engine) ScoreWindow(linkID string, window []*csi.Frame) (core.Decision, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.byID[linkID]
	if !ok {
		return core.Decision{}, fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	if e.running || e.calibrating {
		return core.Decision{}, ErrRunning
	}
	if l.det == nil {
		return core.Decision{}, fmt.Errorf("%w: %s", ErrNotCalibrated, linkID)
	}
	dec, err := l.det.DetectScratch(window, e.probe)
	if err != nil {
		return core.Decision{}, err
	}
	adapter := l.adapter.Load()
	var health adapt.Health
	if adapter != nil {
		if health, err = adapter.ObserveScored(e.probe, dec); err != nil {
			return core.Decision{}, err
		}
	}
	threshold := dec.Threshold
	if adapter != nil {
		threshold = health.Threshold
	}
	l.state.publishDecision(dec, threshold, health, l.ewmaNs)
	e.windowsScored.Add(1)
	e.framesSeen.Add(uint64(len(window)))
	return dec, nil
}

// Verdict fuses the latest decision of every link that has scored at least
// one window into a site-level verdict under the configured policy. Each
// decision carries the link's characterized quality weight — its mean
// multipath factor μ (§IV-A: higher μ means a more detection-sensitive
// link) normalized across the fleet, discounted by its current adaptation
// health — so weight-aware policies (WeightedKOfN) let well-characterized
// healthy links dominate drifting or insensitive ones.
func (e *Engine) Verdict() (SiteVerdict, error) {
	var v SiteVerdict
	if err := e.VerdictInto(&v); err != nil {
		return SiteVerdict{}, err
	}
	return v, nil
}

// VerdictInto is Verdict reusing the caller's SiteVerdict — in particular
// its Links slice — so a steady-state report loop fuses the fleet without
// allocating. Link state is read from lock-free published snapshots; the
// fleet lock is held only to walk the link list, never while scoring.
//
// Under supervision the verdict is coverage-aware: each link's lifecycle is
// read from its supervisor and stamped into its Health, so Stale links fuse
// at a decayed weight, Down/Recovering links are excluded outright, and
// v.Coverage reports the degradation. A site with nothing left to vote —
// every link down, recovering, recalibrating, or quarantined — returns a
// nil error with v.Inconclusive set rather than an error: dead coverage is
// a reportable site state, not a caller bug. ErrNoDecisions is still
// returned before any link has scored its first window.
func (e *Engine) VerdictInto(v *SiteVerdict) error {
	decisions := v.Links[:0]
	var snap linkSnap
	e.mu.Lock()
	if len(e.links) == 0 {
		e.mu.Unlock()
		return ErrNoLinks
	}
	running := e.running
	var maxMu float64
	for _, l := range e.links {
		l.state.load(&snap)
		if snap.Windows > 0 && snap.MeanMu > maxMu {
			maxMu = snap.MeanMu
		}
	}
	cov := Coverage{Links: len(e.links)}
	excluded := 0
	for _, l := range e.links {
		l.state.load(&snap)
		lc := adapt.LifecycleUnsupervised
		if running && l.sup != nil {
			lc = l.sup.Lifecycle()
		}
		switch lc {
		case adapt.LifecycleLive:
			cov.Live++
		case adapt.LifecycleStale:
			cov.Stale++
		case adapt.LifecycleDown:
			cov.Down++
		case adapt.LifecycleRecovering:
			cov.Recovering++
		}
		if snap.Recalibrating {
			cov.Recalibrating++
		}
		if snap.Windows == 0 {
			continue
		}
		if snap.Recalibrating {
			// A recalibrating link has no current opinion: its last decision
			// predates the rebuild in progress, so fusing it would let a
			// stale alarm (or a stale all-clear) outlive its baseline.
			excluded++
			continue
		}
		if lc == adapt.LifecycleDown || lc == adapt.LifecycleRecovering {
			// Same reasoning on the connectivity axis: the link's last
			// decision predates the outage, and a recovering link hasn't
			// re-proven itself yet.
			excluded++
			continue
		}
		snap.Health.Lifecycle = lc
		quality := 1.0
		if maxMu > 0 && snap.MeanMu > 0 {
			quality = snap.MeanMu / maxMu
		}
		decisions = append(decisions, LinkDecision{
			LinkID:   l.id,
			Decision: snap.Last,
			Weight:   quality * snap.Health.Weight(),
			Health:   snap.Health,
		})
		cov.Fused++
	}
	e.mu.Unlock()
	if len(decisions) == 0 && excluded > 0 {
		// Links have scored but every one is currently unusable: an
		// explicit inconclusive verdict, not an error — the caller's report
		// loop keeps running and sees the site recover through Coverage.
		*v = SiteVerdict{Inconclusive: true, Policy: e.cfg.Fusion.String(), Links: decisions, Coverage: cov}
		return nil
	}
	out, err := e.cfg.Fusion.Fuse(decisions)
	if err != nil {
		if errors.Is(err, ErrAllQuarantined) {
			// The drift-axis dead site (every vote quarantined away) gets
			// the same explicit inconclusive treatment as the dead-coverage
			// one; the per-link evidence stays available in v.Links.
			*v = SiteVerdict{Inconclusive: true, Policy: e.cfg.Fusion.String(), Links: decisions, Coverage: cov}
			return nil
		}
		v.Links = decisions
		return err
	}
	out.Coverage = cov
	*v = out
	return nil
}
