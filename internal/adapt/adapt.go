package adapt

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mlink/internal/core"
	"mlink/internal/csi"
)

// ErrBadPolicy reports an invalid adaptation policy.
var ErrBadPolicy = errors.New("adapt: bad policy")

// State is a link's adaptation health classification.
type State int

const (
	// StateUnknown: not enough monitoring history yet (also the zero value
	// reported for links without adaptation).
	StateUnknown State = iota
	// StateHealthy: score statistics consistent with calibration.
	StateHealthy
	// StateDrifting: the baseline is walking; the profile is being
	// refreshed and the link's fusion vote is discounted.
	StateDrifting
	// StateQuarantined: drift exceeded the critical bound; adaptation
	// cannot recover the baseline and the link needs recalibration. Its
	// fusion vote is heavily discounted until then.
	StateQuarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateUnknown:
		return "unknown"
	case StateHealthy:
		return "healthy"
	case StateDrifting:
		return "drifting"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Lifecycle is a link's source-connectivity state, owned by the supervision
// layer (internal/supervise) and stamped into Health snapshots the engine
// hands out. It is orthogonal to the drift State: State says whether the
// link's *baseline* can be trusted, Lifecycle says whether the link is
// *delivering frames at all*. The zero value means the link runs without
// supervision (the pre-supervision behaviour: every source is assumed live).
type Lifecycle int

const (
	// LifecycleUnsupervised: no supervisor watches this link's source.
	LifecycleUnsupervised Lifecycle = iota
	// LifecycleLive: frames are arriving at the expected cadence.
	LifecycleLive
	// LifecycleStale: no frame for longer than the staleness bound — the
	// link's last decision is aging and its fusion vote is decayed.
	LifecycleStale
	// LifecycleDown: the source stalled past the down bound, failed, or
	// ended; the link is excluded from fusion until it recovers.
	LifecycleDown
	// LifecycleRecovering: the source reconnected but has not yet delivered
	// enough consecutive frames to count as live again (the anti-flap
	// hysteresis hold); still excluded from fusion.
	LifecycleRecovering
)

// String names the lifecycle state.
func (l Lifecycle) String() string {
	switch l {
	case LifecycleUnsupervised:
		return "unsupervised"
	case LifecycleLive:
		return "live"
	case LifecycleStale:
		return "stale"
	case LifecycleDown:
		return "down"
	case LifecycleRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("lifecycle(%d)", int(l))
	}
}

// Health is a link's adaptation status snapshot, surfaced per link in the
// engine's verdicts and metrics. Beyond the classified State it carries the
// structured drift evidence — signed deviations, the step-vs-walk
// discriminator, and the profile-walk trend — that the fleet coordination
// layer fuses across links to tell a person (few links perturbed) from
// ambient drift (many links moving together).
type Health struct {
	// State classifies the link.
	State State
	// DriftZ is the current windowed score-statistics z value (0 until the
	// drift monitor has enough samples). Its sign is the drift direction:
	// positive means the link scores above its adapted baseline.
	DriftZ float64
	// ScoreZ is the latest single window's standardized deviation — the
	// fast, low-lag evidence signal (a step change shows here windows
	// before the rolling DriftZ catches up).
	ScoreZ float64
	// JumpExceeded reports a step-like score jump in the recent history:
	// the arrival discriminator that separates a person or moved cabinet
	// from a creeping gain walk.
	JumpExceeded bool
	// ProfileShiftDB is how far the adapted profile has walked from the
	// calibration original (mean |ΔRSS| in dB).
	ProfileShiftDB float64
	// ShiftRateDB is the smoothed per-window change of ProfileShiftDB — the
	// trend of the walk. Near zero for a settled baseline, sustained
	// positive while adaptation is actively chasing a moving environment.
	ShiftRateDB float64
	// Refreshes counts applied silent-window profile updates.
	Refreshes uint64
	// ThresholdUpdates counts online threshold re-derivations.
	ThresholdUpdates uint64
	// Relocks counts fleet-requested baseline relocks (full profile
	// adoptions that cleared a quarantine).
	Relocks uint64
	// Threshold is the link's current decision threshold.
	Threshold float64
	// NeedsRecalibration is sticky once the link is quarantined; it clears
	// when a fresh calibration replaces the adapter, or when the fleet
	// layer relocks the baseline after attributing the shift to ambient,
	// site-wide drift.
	NeedsRecalibration bool
	// RefreshSuppressed reports that profile refreshes are currently held
	// off by the fleet layer (a localized perturbation — likely a person —
	// must not be absorbed into the baseline).
	RefreshSuppressed bool
	// Lifecycle is the link's source-connectivity state, stamped by the
	// engine from the supervision layer at snapshot time. Transient by
	// design: it is never persisted (a restart re-learns connectivity from
	// scratch) and stays LifecycleUnsupervised when supervision is off.
	Lifecycle Lifecycle
}

// Weight converts health into a fusion vote multiplier in (0, 1]: healthy
// and unknown links vote at full weight, drifting links at less than half
// weight, and any link still flagged NeedsRecalibration — currently
// quarantined, or recovered from an excursion onto a baseline that may not
// be the calibrated one — at a small fraction that cannot outvote a
// healthy link on its own.
//
// The lifecycle axis composes multiplicatively on top of the drift axis: a
// stale link's last decision is aging, so its vote decays to a quarter; a
// down or recovering link has no current evidence at all, so its weight
// collapses below engine.MinFusibleWeight and the fusion layer skips it
// entirely (without reading it as the "unset → full weight" zero).
func (h Health) Weight() float64 {
	switch h.Lifecycle {
	case LifecycleDown, LifecycleRecovering:
		return 1e-9
	}
	w := 1.0
	if h.NeedsRecalibration {
		w = 0.1
	} else if h.State == StateDrifting {
		w = 0.4
	}
	if h.Lifecycle == LifecycleStale {
		w *= 0.25
	}
	return w
}

// Policy parameterizes per-link adaptation. The zero value selects the
// defaults noted per field.
type Policy struct {
	// Alpha is the EWMA weight of one silent window in the profile refresh
	// (0 = core.DefaultProfileAlpha).
	Alpha float64
	// SilentFraction gates profile refresh: a window refreshes the profile
	// only when its score ≤ SilentFraction × threshold, i.e. it is
	// confidently empty, not merely below threshold (default 0.9).
	SilentFraction float64
	// TrackBand enables the sustained-tracking refresh that bootstraps a
	// walked baseline: a window whose score is within TrackBand × σ₀ of the
	// rolling score mean is consistent with the recent past — a gradual
	// baseline walk, not an arrival — and refreshes the profile even above
	// the threshold. A person stepping onto the link is a step change:
	// outside the band at first, then driving the drift monitor critical
	// (which suspends tracking refreshes) before the rolling mean can
	// absorb them. 0 selects 4 (an on-link person registers tens of σ₀, so
	// the band keeps an order-of-magnitude margin); negative disables
	// tracking refreshes.
	TrackBand float64
	// RederiveEvery re-derives the threshold after this many profile
	// refreshes (default 8; ≤0 keeps the default, use a huge value to pin
	// the threshold).
	RederiveEvery int
	// NullWindow is the rolling null-score buffer length the threshold is
	// re-derived from (default 32).
	NullWindow int
	// Quantile and Margin parameterize the online threshold re-derivation,
	// exactly as in core.Detector.CalibrateThreshold (defaults 0.95, 1.3).
	Quantile, Margin float64
	// MinThresholdFactor floors the re-derived threshold at this fraction
	// of the calibration-time threshold, so a quiet stretch cannot
	// collapse the threshold into the noise (default 0.8). The rolling
	// null window spans seconds while receiver gain wanders on a
	// multi-second time constant, so the rolling q95 systematically
	// under-samples the stationary null spread — the floor, anchored to
	// the calibration estimate, is what keeps that bias from ratcheting
	// the threshold down until ordinary gain wander alarms.
	MinThresholdFactor float64
	// Drift parameterizes the windowed score-statistics drift test. The
	// monitor's reference is rebased onto the rolling null distribution at
	// every threshold re-derivation, so its critical bound means "walked
	// away from even the adapted baseline".
	Drift core.DriftConfig
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.SilentFraction <= 0 {
		p.SilentFraction = 0.9
	}
	if p.TrackBand == 0 {
		p.TrackBand = 4
	}
	if p.RederiveEvery <= 0 {
		p.RederiveEvery = 8
	}
	if p.NullWindow <= 0 {
		p.NullWindow = 32
	}
	if p.Quantile <= 0 || p.Quantile > 1 {
		p.Quantile = 0.95
	}
	if p.Margin <= 0 {
		p.Margin = 1.3
	}
	if p.MinThresholdFactor <= 0 {
		p.MinThresholdFactor = 0.8
	}
	return p
}

func (p Policy) validate() error {
	if p.SilentFraction > 1 {
		return fmt.Errorf("silent fraction %v > 1 would refresh on detections: %w", p.SilentFraction, ErrBadPolicy)
	}
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("alpha %v out of [0,1]: %w", p.Alpha, ErrBadPolicy)
	}
	return nil
}

// Adapter runs the adaptation policy for one link: it owns the link's
// mutable profile state and drift monitor, and pushes refreshed profiles
// and thresholds into the link's detector.
//
// Observe is single-writer: a link's observations are inherently ordered (the
// drift monitor's jump discriminator and the EWMA refresh sequence are
// order-sensitive), so exactly one goroutine — the engine shard that owns the
// link, or the single-link System — may call it, and it takes no lock.
// Health may be read from any goroutine at any time: snapshots are published
// through an atomic seqlock, so readers never block the observer.
type Adapter struct {
	pol Policy

	det           *core.Detector
	lp            *core.LinkProfile
	mon           *core.DriftMonitor
	ws            core.WindowStats
	sc            *core.Scratch
	nulls         []float64 // rolling null scores, newest appended
	baseThr       float64   // calibration-time threshold (floor reference)
	health        Health    // observer-owned working copy
	sinceRederive int
	lastShiftDB   float64 // previous ProfileShiftDB, for the trend estimate

	// stScratch is reused by the persistence appenders so journal emission
	// off the Observe path serializes the drift-monitor state without
	// allocating per record.
	stScratch core.DriftMonitorState

	// Fleet-layer control requests. Both are set from arbitrary goroutines
	// (the coordinator) and consumed inside Observe by the single owner, so
	// the observer's state stays single-writer.
	suppress atomic.Bool // hold off profile refreshes (localized perturbation)
	relock   atomic.Bool // one-shot: adopt the current window as the baseline

	pub healthPub
}

// SetRefreshSuppressed asks the observer to hold off (or resume) profile
// refreshes. The fleet layer raises it while it attributes a link's drift to
// a localized perturbation — likely a person — that must not be EWMA-absorbed
// into the baseline. Safe from any goroutine; takes effect at the next
// Observe.
func (a *Adapter) SetRefreshSuppressed(on bool) { a.suppress.Store(on) }

// RequestRelock asks the observer to adopt the next window wholesale as the
// new baseline: the profile is replaced with that window's statistics, the
// drift monitor's rolling state is reset, and the quarantine (including the
// sticky NeedsRecalibration flag) is cleared. The fleet layer requests it
// when correlated evidence across the site shows the shift was ambient —
// receiver-chain or environment-wide — so the level the link sits at now is
// the empty room, not an intruder. Safe from any goroutine; applied once, at
// the next Observe.
func (a *Adapter) RequestRelock() { a.relock.Store(true) }

// AtomicHealth stores a Health snapshot field-by-field in atomics. Store
// and Load are individually race-free but not mutually consistent on their
// own — wrap them in a sequence lock (as healthPub here and the engine's
// per-link state do) when a torn multi-field snapshot would matter. Having
// exactly one pack/unpack implementation keeps every publisher in lockstep
// when Health grows a field.
type AtomicHealth struct {
	state      atomic.Int32
	driftZ     atomic.Uint64
	scoreZ     atomic.Uint64
	jump       atomic.Bool
	shiftDB    atomic.Uint64
	shiftRate  atomic.Uint64
	refreshes  atomic.Uint64
	thrUpdates atomic.Uint64
	relocks    atomic.Uint64
	threshold  atomic.Uint64
	needsRecal atomic.Bool
	suppressed atomic.Bool
	lifecycle  atomic.Int32
}

// Store writes every field of h atomically.
func (a *AtomicHealth) Store(h Health) {
	a.state.Store(int32(h.State))
	a.driftZ.Store(math.Float64bits(h.DriftZ))
	a.scoreZ.Store(math.Float64bits(h.ScoreZ))
	a.jump.Store(h.JumpExceeded)
	a.shiftDB.Store(math.Float64bits(h.ProfileShiftDB))
	a.shiftRate.Store(math.Float64bits(h.ShiftRateDB))
	a.refreshes.Store(h.Refreshes)
	a.thrUpdates.Store(h.ThresholdUpdates)
	a.relocks.Store(h.Relocks)
	a.threshold.Store(math.Float64bits(h.Threshold))
	a.needsRecal.Store(h.NeedsRecalibration)
	a.suppressed.Store(h.RefreshSuppressed)
	a.lifecycle.Store(int32(h.Lifecycle))
}

// Load reads every field atomically.
func (a *AtomicHealth) Load() Health {
	return Health{
		State:              State(a.state.Load()),
		DriftZ:             math.Float64frombits(a.driftZ.Load()),
		ScoreZ:             math.Float64frombits(a.scoreZ.Load()),
		JumpExceeded:       a.jump.Load(),
		ProfileShiftDB:     math.Float64frombits(a.shiftDB.Load()),
		ShiftRateDB:        math.Float64frombits(a.shiftRate.Load()),
		Refreshes:          a.refreshes.Load(),
		ThresholdUpdates:   a.thrUpdates.Load(),
		Relocks:            a.relocks.Load(),
		Threshold:          math.Float64frombits(a.threshold.Load()),
		NeedsRecalibration: a.needsRecal.Load(),
		RefreshSuppressed:  a.suppressed.Load(),
		Lifecycle:          Lifecycle(a.lifecycle.Load()),
	}
}

// healthPub atomically publishes Health snapshots: the writer bumps seq to
// odd, stores every field atomically, bumps seq back to even; readers retry
// until they observe one even sequence across a whole field read. All
// accesses are atomic, so publication is race-free without any lock, and the
// single writer never blocks however many readers poll.
type healthPub struct {
	seq atomic.Uint64
	h   AtomicHealth
}

func (p *healthPub) publish(h Health) {
	p.seq.Add(1)
	p.h.Store(h)
	p.seq.Add(1)
}

func (p *healthPub) load() Health {
	for {
		s := p.seq.Load()
		if s&1 != 0 {
			continue
		}
		h := p.h.Load()
		if p.seq.Load() == s {
			return h
		}
	}
}

// NewAdapter wires adaptation onto a calibrated detector. calNullScores is
// the calibration-stage null sample (the same scores the threshold was
// derived from); it seeds both the rolling null buffer and the drift
// monitor's reference statistics.
func NewAdapter(pol Policy, det *core.Detector, calNullScores []float64) (*Adapter, error) {
	if det == nil {
		return nil, fmt.Errorf("adapter needs a detector: %w", ErrBadPolicy)
	}
	if err := pol.validate(); err != nil {
		return nil, err
	}
	pol = pol.withDefaults()
	if err := core.ValidateNullScores(calNullScores); err != nil {
		return nil, fmt.Errorf("adapter null seed: %w", err)
	}
	lp, err := core.NewLinkProfile(det.Profile(), pol.Alpha)
	if err != nil {
		return nil, fmt.Errorf("adapter: %w", err)
	}
	mon, err := core.NewDriftMonitor(pol.Drift, calNullScores)
	if err != nil {
		return nil, fmt.Errorf("adapter: %w", err)
	}
	nulls := make([]float64, 0, pol.NullWindow)
	tail := calNullScores
	if len(tail) > pol.NullWindow {
		tail = tail[len(tail)-pol.NullWindow:]
	}
	nulls = append(nulls, tail...)
	a := &Adapter{
		pol:     pol,
		det:     det,
		lp:      lp,
		mon:     mon,
		sc:      core.NewScratch(),
		nulls:   nulls,
		baseThr: det.Threshold(),
		health:  Health{State: StateUnknown, Threshold: det.Threshold()},
	}
	a.pub.publish(a.health)
	return a, nil
}

// Policy returns the normalized policy in effect.
func (a *Adapter) Policy() Policy { return a.pol }

// Health returns the latest health snapshot. Safe to call from any
// goroutine, concurrently with Observe; it never blocks the observer.
func (a *Adapter) Health() Health {
	return a.pub.load()
}

// Observe folds one scored monitoring window into the adaptation state:
// updates the drift monitor, refreshes the profile on confidently silent
// windows, and periodically re-derives the threshold from the rolling null
// distribution. The window's frames are only read during the call — the
// caller may recycle them afterwards. It returns the post-update health.
// A refresh prepares (sanitizes) the window again on the adapter's own
// scratch; a caller that scored it on a scratch of its own should use
// ObserveScored instead.
//
// Observe must be called from a single goroutine (the link's owner); see the
// Adapter doc comment.
func (a *Adapter) Observe(window []*csi.Frame, dec core.Decision) (Health, error) {
	return a.observe(window, nil, dec)
}

// ObserveScored is Observe for the window just scored on sc through the
// adapter's detector (Detector.DetectScratch or equivalent): a refresh or
// relock measures the frames that score already prepared (see
// core.Detector.MeasurePrepared) instead of sanitizing the window a second
// time. sc must not be used for anything else between the score and this
// call, and the window's frames must not be recycled before it returns. The
// result is bit-identical to Observe on the same window.
func (a *Adapter) ObserveScored(sc *core.Scratch, dec core.Decision) (Health, error) {
	if sc == nil {
		return a.health, fmt.Errorf("adapt: observe without a scoring scratch: %w", core.ErrBadInput)
	}
	return a.observe(nil, sc, dec)
}

// observe is the one observation path. Exactly one of window and scored is
// set: the raw window to prepare on the adapter's own scratch, or the
// scratch that scored it (see measure).
func (a *Adapter) observe(window []*csi.Frame, scored *core.Scratch, dec core.Decision) (Health, error) {
	defer func() { a.pub.publish(a.health) }()

	if a.relock.Swap(false) {
		// Ambient relock: the fleet layer attributed the link's shift to a
		// site-wide cause, so this window's statistics ARE the empty room.
		// The window's score was computed against the pre-relock profile —
		// feeding it to the monitor would poison the fresh rolling state, so
		// this observation only rebuilds.
		if err := a.relockNow(window, scored); err != nil {
			return a.health, err
		}
		return a.health, nil
	}

	a.mon.Observe(dec.Score)
	stats := a.mon.Snapshot()

	// Two refresh gates:
	//   silent — the window is confidently empty (well below threshold);
	//   tracking — the window is consistent with the recent rolling mean,
	//   i.e. the baseline has walked gradually under the detector and the
	//   elevated score is drift, not an arrival. Tracking is suspended once
	//   the link is quarantined: a parked person must not be absorbed.
	// A step change (furniture, person) is outside both gates at first and
	// drives the drift monitor critical before the rolling mean absorbs it.
	// Tracking is additionally suspended while a step-like jump sits in
	// the recent score history (stats.JumpExceeded): a level reached by a
	// jump is an arrival, not a walk, even before the critical latch has
	// persisted — without this, an intruder whose shift lands between the
	// track band and the critical bound would be EWMA-absorbed within a
	// couple of windows. (An arrival below the jump bound remains
	// statistically indistinguishable from the receiver's own gain
	// excursions; that residual ambiguity is inherent to a single link.)
	suppressed := a.suppress.Load()
	silent := !dec.Present && dec.Threshold > 0 && dec.Score <= a.pol.SilentFraction*dec.Threshold
	tracking := !silent && a.pol.TrackBand > 0 &&
		(stats.State == core.DriftHealthy || stats.State == core.DriftWarning) &&
		!stats.JumpExceeded &&
		math.Abs(dec.Score-stats.RecentMean) <= a.pol.TrackBand*stats.RefStd
	if (silent || tracking) && !suppressed {
		if err := a.refresh(window, scored, dec.Score); err != nil {
			return a.health, err
		}
	}

	a.health.DriftZ = stats.Z
	a.health.ScoreZ = stats.ScoreZ
	a.health.JumpExceeded = stats.JumpExceeded
	a.health.RefreshSuppressed = suppressed
	a.updateShiftTrend()
	a.health.Refreshes = a.lp.Refreshes()
	a.health.Threshold = a.det.Threshold()
	switch stats.State {
	case core.DriftUnknown:
		a.health.State = StateUnknown
	case core.DriftHealthy:
		a.health.State = StateHealthy
	case core.DriftWarning:
		a.health.State = StateDrifting
	case core.DriftCritical:
		// The monitor latches critical while the shift persists; the
		// NeedsRecalibration flag additionally stays sticky after the
		// state recovers — the baseline that came back may not be the one
		// that was calibrated (furniture moved twice), so only a fresh
		// calibration clears the flag.
		a.health.State = StateQuarantined
		a.health.NeedsRecalibration = true
	}
	return a.health, nil
}

// measure computes the observed window's profile statistics into a.ws: from
// the frames the scoring scratch already prepared when scored is set, else
// by preparing window on the adapter's own scratch.
func (a *Adapter) measure(window []*csi.Frame, scored *core.Scratch) error {
	if scored != nil {
		return a.det.MeasurePrepared(&a.ws, scored)
	}
	return a.det.MeasureWindow(&a.ws, window, a.sc)
}

// refresh applies one silent-window profile refresh and, at the configured
// cadence, re-derives the threshold from the rolling nulls.
func (a *Adapter) refresh(window []*csi.Frame, scored *core.Scratch, score float64) error {
	if err := a.measure(window, scored); err != nil {
		return fmt.Errorf("adapt measure: %w", err)
	}
	next, err := a.lp.Refresh(&a.ws)
	if err != nil {
		return fmt.Errorf("adapt refresh: %w", err)
	}
	if err := a.det.SetProfile(next); err != nil {
		return fmt.Errorf("adapt swap: %w", err)
	}
	if len(a.nulls) == cap(a.nulls) && len(a.nulls) > 0 {
		a.nulls = a.nulls[:copy(a.nulls, a.nulls[1:])]
	}
	a.nulls = append(a.nulls, score)

	a.sinceRederive++
	if a.sinceRederive < a.pol.RederiveEvery {
		return nil
	}
	a.sinceRederive = 0
	t, err := core.DeriveThreshold(a.nulls, a.pol.Quantile, a.pol.Margin)
	if err != nil {
		// A degenerate rolling sample (e.g. a stuck replay) pins the
		// current threshold rather than poisoning it.
		if errors.Is(err, core.ErrBadInput) {
			return nil
		}
		return fmt.Errorf("adapt threshold: %w", err)
	}
	if floor := a.pol.MinThresholdFactor * a.baseThr; t < floor {
		t = floor
	}
	a.det.SetThreshold(t)
	a.health.ThresholdUpdates++
	// Anchor the drift test to the null distribution now in force: from
	// here on, "drift" means walking away from the adapted baseline.
	if err := a.mon.Rebase(a.nulls); err != nil && !errors.Is(err, core.ErrBadInput) {
		return fmt.Errorf("adapt rebase: %w", err)
	}
	return nil
}

// shiftTrendAlpha is the EWMA weight of one window's ShiftDB increment in
// the ShiftRateDB trend estimate — fast enough to register an active walk
// within a few windows, smooth enough that a single refresh blip reads as
// noise.
const shiftTrendAlpha = 0.25

// updateShiftTrend folds the latest ShiftDB into the walk-trend estimate.
func (a *Adapter) updateShiftTrend() {
	shift := a.lp.ShiftDB()
	delta := shift - a.lastShiftDB
	a.lastShiftDB = shift
	a.health.ProfileShiftDB = shift
	a.health.ShiftRateDB = (1-shiftTrendAlpha)*a.health.ShiftRateDB + shiftTrendAlpha*delta
}

// relockNow adopts the window wholesale as the new baseline: full-weight
// profile replacement, fresh drift-monitor window, cleared quarantine, and
// an emptied rolling-null buffer (the old nulls described the old baseline).
// The decision threshold is deliberately retained: post-relock scores sit far
// below it, so silent refreshes resume immediately and the threshold
// re-derives from genuinely fresh nulls at the usual cadence — while a person
// arriving in the meantime still faces a meaningful threshold.
func (a *Adapter) relockNow(window []*csi.Frame, scored *core.Scratch) error {
	if err := a.measure(window, scored); err != nil {
		return fmt.Errorf("adapt relock measure: %w", err)
	}
	next, err := a.lp.Adopt(&a.ws)
	if err != nil {
		return fmt.Errorf("adapt relock: %w", err)
	}
	if err := a.det.SetProfile(next); err != nil {
		return fmt.Errorf("adapt relock swap: %w", err)
	}
	a.nulls = a.nulls[:0]
	a.sinceRederive = 0
	a.mon.Reset()
	a.health.State = StateUnknown
	a.health.DriftZ = 0
	a.health.ScoreZ = 0
	a.health.JumpExceeded = false
	a.health.NeedsRecalibration = false
	a.health.Relocks++
	a.health.Refreshes = a.lp.Refreshes()
	a.health.Threshold = a.det.Threshold()
	a.updateShiftTrend()
	return nil
}
