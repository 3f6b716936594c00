package supervise

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/csi"
)

// Errors surfaced by the supervisor.
var (
	// ErrNoFrame is the non-blocking "nothing buffered yet" result from
	// Supervisor.Next: the source is (as far as the supervisor knows) still
	// alive but the ring is empty. Consumers skip the link and move on.
	ErrNoFrame = errors.New("supervise: no frame buffered")
	// ErrStillRunning reports a Start while the previous run's producer has
	// not been waited out (a blocking source that ignored its interrupt).
	ErrStillRunning = errors.New("supervise: previous run still active")
)

// Source is the frame producer a supervisor pulls from — structurally
// identical to engine.Source, declared here so the engine can depend on this
// package without a cycle. Next blocks until a frame is available, the
// stream ends (io.EOF), or it fails. Only the supervisor's producer
// goroutine calls it.
type Source interface {
	Next() (*csi.Frame, error)
}

// Recycler takes back frames the supervisor had to drop (ring full with
// DropWhenFull, or in flight when the run was cancelled), so pooled sources
// don't leak their buffers. Mirrors engine.FrameRecycler.
type Recycler interface {
	Recycle(f *csi.Frame)
}

// Reconnector marks a source whose transport can be re-established after a
// failure. When a Reconnector's Next returns any error — including a
// mid-stream io.EOF, which for a network source just means the peer went
// away — the supervisor enters the Down state and redials with jittered
// exponential backoff instead of ending the link. Sources without this
// interface end cleanly on the first error.
type Reconnector interface {
	Reconnect(ctx context.Context) error
}

// Interrupter marks a source whose blocking Next can be unblocked from
// another goroutine (e.g. by closing the underlying connection). The
// supervisor calls it when its run context ends, so shutdown never waits on
// a network read.
type Interrupter interface {
	Interrupt()
}

// ActivityReporter lets a source contribute liveness the supervisor can't
// see from delivered frames alone — csinet heartbeats arrive inside a
// blocking Recv and never surface as frames, but they do prove the peer is
// up. Must be safe to call from any goroutine.
type ActivityReporter interface {
	LastActivity() time.Time
}

// Policy parameterizes link supervision. The zero value selects the
// defaults noted per field.
type Policy struct {
	// RingSize bounds the per-link ingest ring (default 128 frames; rounded
	// up to a power of two).
	RingSize int
	// StaleAfter is how long without source activity before a Live link is
	// reported Stale (default 500ms).
	StaleAfter time.Duration
	// DownAfter is how long without source activity before a Stale link is
	// reported Down (default 2s; must exceed StaleAfter).
	DownAfter time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 50ms and 5s).
	BackoffMin, BackoffMax time.Duration
	// BackoffJitter is the ± fraction applied to each backoff sleep so a
	// site full of links redialing one restarted collector doesn't
	// synchronize (default 0.2; negative disables jitter).
	BackoffJitter float64
	// HoldLiveFrames is the anti-flap hysteresis: after a reconnect the
	// link stays Recovering — excluded from fusion — until this many
	// consecutive frames arrive (default 25, one typical window).
	HoldLiveFrames int
	// DropWhenFull sheds the newest frame when the ring is full instead of
	// blocking the producer. Off by default: a slow consumer then exerts
	// backpressure on the source, which is what replay and simulation
	// sources want; network ingestion typically turns it on.
	DropWhenFull bool
	// Seed fixes the jitter RNG for deterministic tests (default 1).
	Seed int64
	// OnTransition, when set, is called from the supervisor's watcher
	// goroutine on every lifecycle change, with the last source error (nil
	// for pure staleness transitions).
	OnTransition func(link string, from, to adapt.Lifecycle, cause error)
}

func (p Policy) withDefaults() Policy {
	if p.RingSize <= 0 {
		p.RingSize = 128
	}
	if p.StaleAfter <= 0 {
		p.StaleAfter = 500 * time.Millisecond
	}
	if p.DownAfter <= p.StaleAfter {
		p.DownAfter = 4 * p.StaleAfter
	}
	if p.BackoffMin <= 0 {
		p.BackoffMin = 50 * time.Millisecond
	}
	if p.BackoffMax < p.BackoffMin {
		p.BackoffMax = 5 * time.Second
		if p.BackoffMax < p.BackoffMin {
			p.BackoffMax = p.BackoffMin
		}
	}
	if p.BackoffJitter == 0 {
		p.BackoffJitter = 0.2
	}
	if p.BackoffJitter < 0 {
		p.BackoffJitter = 0
	}
	if p.HoldLiveFrames <= 0 {
		p.HoldLiveFrames = 25
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// runState is the producer-owned coarse state; the time-based Stale/Down
// refinement of stLive happens at read time in Lifecycle.
type runState int32

const (
	stLive runState = iota
	stRecovering
	stDown
	stEnded
)

// ringFullWait is the producer's poll interval while a full ring exerts
// backpressure (DropWhenFull off). A plain sleep rather than a timer select:
// this sits on the steady-state path and must not allocate.
const ringFullWait = 100 * time.Microsecond

// Status is a point-in-time supervisor report.
type Status struct {
	// Lifecycle is the link's current connectivity state.
	Lifecycle adapt.Lifecycle
	// Frames counts frames delivered by the source since New.
	Frames uint64
	// Drops counts frames shed because the ring was full (DropWhenFull).
	Drops uint64
	// Reconnects counts successful redials.
	Reconnects uint64
	// Buffered is the current ring depth.
	Buffered int
	// LastActivity is when the source last produced a frame (or reported
	// side-channel activity such as a heartbeat).
	LastActivity time.Time
	// Err is the most recent source error (nil after a clean end).
	Err error
}

// Supervisor owns one link's ingestion: a producer goroutine pulls frames
// from the source into a bounded SPSC ring, tracks the link's lifecycle
// state machine (Live → Stale → Down → Recovering → Live), and redials
// reconnectable sources with jittered exponential backoff. The consumer —
// the engine shard that owns the link — calls Next, which never blocks:
// a stalled, slow, or dead source can starve only its own link, never a
// shard sibling. A consumer that found the ring short arms the bell (Arm)
// and parks; the producer rings it once the frames it asked for are
// buffered, so the consumer need not poll.
//
// Concurrency contract: exactly one goroutine calls Next/Flush/Arm (the
// consumer); SetBell/Start/Wait are called by the run orchestrator;
// Lifecycle and Status are safe from any goroutine.
type Supervisor struct {
	link string
	pol  Policy
	src  Source
	rec  Recycler

	ring *ring
	rng  *rand.Rand // producer-owned (jitter)

	state        atomic.Int32 // runState; producer writes, anyone reads
	lastActivity atomic.Int64 // unix nanos of last source activity
	frames       atomic.Uint64
	drops        atomic.Uint64
	reconnects   atomic.Uint64
	errBox       atomic.Pointer[error]

	backoff time.Duration // producer-owned current backoff
	sinceUp int           // producer-owned consecutive frames since reconnect

	// bell is the consumer's wake-up callback (SetBell), called from the
	// producer goroutine. want is the armed bell's target: the ring tail at
	// which the frames the consumer asked for are all buffered, 0 when
	// unarmed. Arm stores it, the producer CASes it back to 0 when it rings,
	// so each arm rings at most once.
	bell func()
	want atomic.Uint64

	running atomic.Bool
	wg      sync.WaitGroup
}

// New builds a supervisor for one link. rec may be nil for sources whose
// frames are not pooled.
func New(link string, pol Policy, src Source, rec Recycler) *Supervisor {
	pol = pol.withDefaults()
	return &Supervisor{
		link: link,
		pol:  pol,
		src:  src,
		rec:  rec,
		ring: newRing(pol.RingSize),
		rng:  rand.New(rand.NewSource(pol.Seed)),
	}
}

// Policy returns the normalized policy in effect.
func (s *Supervisor) Policy() Policy { return s.pol }

// Start launches the producer and watcher goroutines for one run. The run
// ends when ctx is cancelled (Wait then joins both goroutines) or when a
// non-reconnectable source ends. Returns ErrStillRunning if a previous
// run's goroutines are still alive.
func (s *Supervisor) Start(ctx context.Context) error {
	if !s.running.CompareAndSwap(false, true) {
		return ErrStillRunning
	}
	s.errBox.Store(nil)
	s.state.Store(int32(stLive))
	s.lastActivity.Store(time.Now().UnixNano())
	s.backoff = s.pol.BackoffMin
	s.sinceUp = 0
	s.want.Store(0)
	prodDone := make(chan struct{})
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		defer close(prodDone)
		s.produce(ctx)
	}()
	go func() {
		defer s.wg.Done()
		s.watch(ctx, prodDone)
	}()
	return nil
}

// Wait joins the run's goroutines. Cancel the Start context first, or a
// healthy source will keep the run alive indefinitely.
func (s *Supervisor) Wait() {
	s.wg.Wait()
	s.running.Store(false)
}

// Next pops the oldest buffered frame. It never blocks: ErrNoFrame means
// "nothing yet, skip me this pass" (Arm then lets the consumer sleep until
// the frames it needs arrive); io.EOF means the link has ended for good. A
// hard source failure on a non-reconnectable source also ends the link as
// io.EOF — supervision's contract is that one broken source marks its own
// link down instead of killing the run — with the terminal error preserved
// in Status().Err and the OnTransition cause.
func (s *Supervisor) Next() (*csi.Frame, error) {
	if f := s.ring.pop(); f != nil {
		return f, nil
	}
	if runState(s.state.Load()) == stEnded {
		// The producer's last pushes happen-before the stEnded store;
		// re-check the ring so an ending source's final frame isn't lost.
		if f := s.ring.pop(); f != nil {
			return f, nil
		}
		return nil, io.EOF
	}
	return nil, ErrNoFrame
}

// SetBell installs the callback the producer rings for an armed consumer
// (see Arm). Call it before Start; bell runs on the producer goroutine, so
// it must be fast and must not block — a non-blocking channel send is the
// intended shape.
func (s *Supervisor) SetBell(bell func()) { s.bell = bell }

// Arm asks the producer to ring the bell once n frames are buffered, or
// when the link ends, whichever comes first; n is capped at the ring's
// capacity, which a full ring would otherwise never exceed. It reports
// true, and arms nothing, when the frames are already buffered or the link
// has already ended (or n < 1 asks for nothing): the consumer should keep
// popping instead of parking. Consumer-side only (same goroutine as Next).
//
// Each arm rings at most once, and never too late: Arm stores the target
// and then reads the ring tail (and the run state), while the producer
// stores the tail (or the ended state) and then reads the target. With Go's
// sequentially consistent atomics one side always sees the other's store,
// so either Arm reports true or the producer rings — the wake-up cannot be
// lost. When Arm loses the disarm race to a producer that already claimed
// the target, the bell still rings once: a spurious wake, never a missed
// one.
func (s *Supervisor) Arm(n int) bool {
	if n < 1 {
		return true
	}
	if c := len(s.ring.buf); n > c {
		n = c
	}
	target := s.ring.head.Load() + uint64(n)
	s.want.Store(target)
	if s.ring.tail.Load() >= target || runState(s.state.Load()) == stEnded {
		s.want.CompareAndSwap(target, 0)
		return true
	}
	return false
}

// ringBell rings an armed bell whose target the ring tail has reached, or
// any armed bell once the link has ended. Producer-side only, after the
// tail or state store it reports.
func (s *Supervisor) ringBell(ended bool) {
	w := s.want.Load()
	if w == 0 || (!ended && s.ring.tail.Load() < w) {
		return
	}
	if s.want.CompareAndSwap(w, 0) && s.bell != nil {
		s.bell()
	}
}

// Flush drains and recycles every buffered frame, returning the count.
// Consumer-side only (same goroutine as Next); the engine uses it to shed a
// stale backlog before drawing recalibration data.
func (s *Supervisor) Flush() int {
	n := 0
	for f := s.ring.pop(); f != nil; f = s.ring.pop() {
		if s.rec != nil {
			s.rec.Recycle(f)
		}
		n++
	}
	return n
}

// Lifecycle derives the link's current connectivity state: the producer's
// coarse state, with Live refined by activity age against the staleness
// bounds. Safe from any goroutine; allocation-free.
func (s *Supervisor) Lifecycle() adapt.Lifecycle {
	switch runState(s.state.Load()) {
	case stEnded, stDown:
		return adapt.LifecycleDown
	case stRecovering:
		return adapt.LifecycleRecovering
	}
	last := s.lastActivity.Load()
	if ar, ok := s.src.(ActivityReporter); ok {
		if t := ar.LastActivity(); !t.IsZero() {
			if n := t.UnixNano(); n > last {
				last = n
			}
		}
	}
	age := time.Duration(time.Now().UnixNano() - last)
	switch {
	case age >= s.pol.DownAfter:
		return adapt.LifecycleDown
	case age >= s.pol.StaleAfter:
		return adapt.LifecycleStale
	}
	return adapt.LifecycleLive
}

// Status reports counters and state. Safe from any goroutine.
func (s *Supervisor) Status() Status {
	st := Status{
		Lifecycle:    s.Lifecycle(),
		Frames:       s.frames.Load(),
		Drops:        s.drops.Load(),
		Reconnects:   s.reconnects.Load(),
		Buffered:     s.ring.len(),
		LastActivity: time.Unix(0, s.lastActivity.Load()),
	}
	if ep := s.errBox.Load(); ep != nil {
		st.Err = *ep
	}
	return st
}

// produce is the ingestion loop: pull, deliver, and on failure either end
// the link (plain sources) or redial with backoff (Reconnectors).
func (s *Supervisor) produce(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		f, err := s.src.Next()
		if err == nil {
			s.noteFrame()
			if !s.deliver(ctx, f) {
				return
			}
			continue
		}
		if ctx.Err() != nil {
			// The read was interrupted by shutdown, not a source fault.
			return
		}
		rc, reconnectable := s.src.(Reconnector)
		if !reconnectable {
			// Clean end (io.EOF) and hard failure both end the link; the
			// terminal error is kept for Next/Status, EOF stays implicit.
			if !errors.Is(err, io.EOF) {
				s.setErr(err)
			}
			s.state.Store(int32(stEnded))
			s.ringBell(true)
			return
		}
		// Down: redial until it sticks or the run ends. Backoff grows per
		// attempt and only resets once the link re-proves itself live
		// (HoldLiveFrames in noteFrame), so a flapping source pays the full
		// escalating price instead of thrashing at BackoffMin.
		s.setErr(err)
		s.state.Store(int32(stDown))
		for {
			if !sleepCtx(ctx, s.jittered(s.backoff)) {
				return
			}
			if s.backoff *= 2; s.backoff > s.pol.BackoffMax {
				s.backoff = s.pol.BackoffMax
			}
			rerr := rc.Reconnect(ctx)
			if rerr == nil {
				s.reconnects.Add(1)
				s.sinceUp = 0
				s.lastActivity.Store(time.Now().UnixNano())
				s.state.Store(int32(stRecovering))
				break
			}
			if ctx.Err() != nil {
				return
			}
			s.setErr(rerr)
		}
	}
}

// noteFrame records activity and applies the Recovering→Live hysteresis.
func (s *Supervisor) noteFrame() {
	s.frames.Add(1)
	s.lastActivity.Store(time.Now().UnixNano())
	if runState(s.state.Load()) == stRecovering {
		if s.sinceUp++; s.sinceUp >= s.pol.HoldLiveFrames {
			s.backoff = s.pol.BackoffMin
			s.state.Store(int32(stLive))
		}
	}
}

// deliver pushes f into the ring, shedding (DropWhenFull) or exerting
// backpressure otherwise. Returns false when the run ended mid-wait.
func (s *Supervisor) deliver(ctx context.Context, f *csi.Frame) bool {
	for !s.ring.push(f) {
		if s.pol.DropWhenFull {
			s.drops.Add(1)
			if s.rec != nil {
				s.rec.Recycle(f)
			}
			return true
		}
		if ctx.Err() != nil {
			if s.rec != nil {
				s.rec.Recycle(f)
			}
			return false
		}
		time.Sleep(ringFullWait)
		// The frame in hand proves the source is alive: a full ring means
		// the consumer fell behind (or met its windows quota and stopped
		// draining), not that the link went quiet. Keep the heartbeat
		// fresh so backpressure is never misreported as staleness.
		s.lastActivity.Store(time.Now().UnixNano())
	}
	s.ringBell(false)
	return true
}

// watch is the run's second goroutine: it emits OnTransition callbacks
// (including the purely time-driven Live→Stale→Down ones the producer never
// sees) and interrupts a blocking source when the run context ends.
func (s *Supervisor) watch(ctx context.Context, prodDone <-chan struct{}) {
	period := s.pol.StaleAfter / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	if period > 250*time.Millisecond {
		period = 250 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	last := adapt.LifecycleLive
	for {
		select {
		case <-ctx.Done():
			// Final report, so a transition that landed between the last
			// tick and shutdown (e.g. Recovering→Live) is not lost.
			s.emit(&last)
			if in, ok := s.src.(Interrupter); ok {
				in.Interrupt()
			}
			return
		case <-prodDone:
			s.emit(&last)
			return
		case <-tick.C:
			s.emit(&last)
		}
	}
}

func (s *Supervisor) emit(last *adapt.Lifecycle) {
	cur := s.Lifecycle()
	if cur == *last {
		return
	}
	if cb := s.pol.OnTransition; cb != nil {
		var cause error
		if ep := s.errBox.Load(); ep != nil {
			cause = *ep
		}
		cb(s.link, *last, cur, cause)
	}
	*last = cur
}

func (s *Supervisor) setErr(err error) {
	s.errBox.Store(&err)
}

// jittered spreads d by ±BackoffJitter so redials across links decorrelate.
func (s *Supervisor) jittered(d time.Duration) time.Duration {
	j := s.pol.BackoffJitter
	if j <= 0 {
		return d
	}
	f := 1 + j*(2*s.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// sleepCtx sleeps d or until ctx ends; reports whether the sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
