package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/csi"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRingBounds(t *testing.T) {
	r := newRing(5) // rounds up to 8
	if got := len(r.buf); got != 8 {
		t.Fatalf("capacity = %d, want 8", got)
	}
	if r.pop() != nil {
		t.Fatal("pop on empty ring returned a frame")
	}
	frames := make([]*csi.Frame, 8)
	for i := range frames {
		frames[i] = &csi.Frame{Seq: uint32(i)}
		if !r.push(frames[i]) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.push(&csi.Frame{}) {
		t.Fatal("push succeeded on a full ring")
	}
	if got := r.len(); got != 8 {
		t.Fatalf("len = %d, want 8", got)
	}
	for i := range frames {
		if f := r.pop(); f != frames[i] {
			t.Fatalf("pop %d returned the wrong frame", i)
		}
	}
	if r.pop() != nil {
		t.Fatal("pop after drain returned a frame")
	}
}

// TestRingSPSC hammers the ring from one producer and one consumer; run
// under -race it also proves the publication ordering.
func TestRingSPSC(t *testing.T) {
	r := newRing(16)
	const total = 50000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			f := &csi.Frame{Seq: uint32(i)}
			for !r.push(f) {
				runtime.Gosched() // the consumer drains concurrently
			}
		}
	}()
	next := uint32(0)
	for next < total {
		f := r.pop()
		if f == nil {
			runtime.Gosched()
			continue
		}
		if f.Seq != next {
			t.Fatalf("out-of-order pop: got seq %d, want %d", f.Seq, next)
		}
		next++
	}
	wg.Wait()
	if r.pop() != nil {
		t.Fatal("ring not empty after consuming every frame")
	}
}

// scriptSource serves scripted frames/errors from a channel; Next blocks
// while the channel is empty (a stalled source) and returns io.EOF when it
// is closed.
type scriptSource struct {
	ch       chan scriptEvent
	recycled atomic.Uint64
}

type scriptEvent struct {
	f   *csi.Frame
	err error
}

func newScriptSource(buf int) *scriptSource {
	return &scriptSource{ch: make(chan scriptEvent, buf)}
}

func (s *scriptSource) Next() (*csi.Frame, error) {
	ev, ok := <-s.ch
	if !ok {
		return nil, io.EOF
	}
	return ev.f, ev.err
}

func (s *scriptSource) Recycle(*csi.Frame) { s.recycled.Add(1) }

func (s *scriptSource) feed(n int) {
	for i := 0; i < n; i++ {
		s.ch <- scriptEvent{f: &csi.Frame{}}
	}
}

// flakySource is a scriptSource whose transport can be redialed, failing a
// configured number of attempts first.
type flakySource struct {
	*scriptSource
	failConnects atomic.Int32
	reconnects   atomic.Uint64
}

func (s *flakySource) Reconnect(ctx context.Context) error {
	if s.failConnects.Add(-1) >= 0 {
		return errors.New("refused")
	}
	s.reconnects.Add(1)
	return nil
}

func fastPolicy() Policy {
	return Policy{
		RingSize:       16,
		StaleAfter:     20 * time.Millisecond,
		DownAfter:      60 * time.Millisecond,
		BackoffMin:     time.Millisecond,
		BackoffMax:     8 * time.Millisecond,
		HoldLiveFrames: 3,
	}
}

func TestSupervisorDeliversThenEnds(t *testing.T) {
	src := newScriptSource(16)
	s := New("L1", fastPolicy(), src, src)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	src.feed(5)
	close(src.ch) // clean end after the frames

	got := 0
	waitFor(t, time.Second, "all frames + EOF", func() bool {
		f, err := s.Next()
		if f != nil {
			got++
			return false
		}
		return errors.Is(err, io.EOF)
	})
	if got != 5 {
		t.Fatalf("delivered %d frames, want 5", got)
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after end = %v, want io.EOF", err)
	}
	if st := s.Status(); st.Err != nil || st.Frames != 5 {
		t.Fatalf("Status = %+v, want 5 frames and nil Err", st)
	}
	s.Wait()
}

func TestSupervisorTerminalErrorEndsAsEOF(t *testing.T) {
	src := newScriptSource(16)
	boom := errors.New("wire torn")
	s := New("L1", fastPolicy(), src, src)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	src.ch <- scriptEvent{err: boom}

	// The consumer sees a clean end — supervision never propagates a source
	// fault into the scoring loop — while Status keeps the real cause.
	waitFor(t, time.Second, "terminal EOF", func() bool {
		_, err := s.Next()
		return errors.Is(err, io.EOF)
	})
	if st := s.Status(); !errors.Is(st.Err, boom) {
		t.Fatalf("Status.Err = %v, want the source error", st.Err)
	}
	if lc := s.Lifecycle(); lc != adapt.LifecycleDown {
		t.Fatalf("Lifecycle after terminal error = %v, want Down", lc)
	}
	s.Wait()
}

func TestSupervisorStalenessLadder(t *testing.T) {
	src := newScriptSource(16)
	s := New("L1", fastPolicy(), src, src)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	src.feed(1)
	waitFor(t, time.Second, "first frame", func() bool {
		f, _ := s.Next()
		return f != nil
	})
	if lc := s.Lifecycle(); lc != adapt.LifecycleLive {
		t.Fatalf("Lifecycle right after a frame = %v, want Live", lc)
	}
	// The source now blocks in Next with nothing scripted: no activity.
	waitFor(t, time.Second, "Stale", func() bool { return s.Lifecycle() == adapt.LifecycleStale })
	waitFor(t, time.Second, "Down", func() bool { return s.Lifecycle() == adapt.LifecycleDown })
	// Feeding again revives the link: staleness is purely activity age.
	src.feed(1)
	waitFor(t, time.Second, "Live again", func() bool { return s.Lifecycle() == adapt.LifecycleLive })
	cancel()
	close(src.ch)
	s.Wait()
}

func TestSupervisorReconnectBackoffAndHysteresis(t *testing.T) {
	inner := newScriptSource(64)
	src := &flakySource{scriptSource: inner}
	src.failConnects.Store(3)

	var mu sync.Mutex
	var trace []string
	pol := fastPolicy()
	pol.OnTransition = func(link string, from, to adapt.Lifecycle, cause error) {
		mu.Lock()
		trace = append(trace, fmt.Sprintf("%s->%s", from, to))
		mu.Unlock()
	}
	s := New("L1", pol, src, src)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}

	inner.ch <- scriptEvent{err: errors.New("link reset")}
	// Down until the 4th redial attempt sticks.
	waitFor(t, 2*time.Second, "reconnect", func() bool { return s.Status().Reconnects == 1 })
	if got := src.reconnects.Load(); got != 1 {
		t.Fatalf("source saw %d successful reconnects, want 1", got)
	}
	if lc := s.Lifecycle(); lc != adapt.LifecycleRecovering {
		t.Fatalf("Lifecycle after redial = %v, want Recovering", lc)
	}

	// Hysteresis: two frames are not enough to re-enter Live...
	inner.feed(2)
	waitFor(t, time.Second, "2 frames buffered", func() bool { return s.Status().Frames == 2 })
	if lc := s.Lifecycle(); lc != adapt.LifecycleRecovering {
		t.Fatalf("Lifecycle after 2 frames = %v, want still Recovering", lc)
	}
	// ...the third (HoldLiveFrames) is.
	inner.feed(1)
	waitFor(t, time.Second, "Live after hold", func() bool { return s.Lifecycle() == adapt.LifecycleLive })

	cancel()
	close(inner.ch)
	s.Wait()

	// The watcher samples lifecycle on a tick, so fast intermediate states
	// (Recovering held only for 3 frames here) may be collapsed; what must
	// hold is that the outage and the return to Live were both reported.
	mu.Lock()
	defer mu.Unlock()
	joined := fmt.Sprint(trace)
	if len(trace) == 0 || trace[0] != "live->down" {
		t.Fatalf("transition trace %s does not start with the outage", joined)
	}
	if lastTo := trace[len(trace)-1]; lastTo != "down->live" && lastTo != "recovering->live" {
		t.Fatalf("transition trace %s does not end back at live", joined)
	}
}

func TestSupervisorDropWhenFull(t *testing.T) {
	src := newScriptSource(64)
	pol := fastPolicy()
	pol.RingSize = 4
	pol.DropWhenFull = true
	s := New("L1", pol, src, src)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Nobody consumes: 4 frames fill the ring, the rest are shed.
	src.feed(10)
	waitFor(t, time.Second, "drops", func() bool { return s.Status().Drops == 6 })
	if got := src.recycled.Load(); got != 6 {
		t.Fatalf("recycled %d dropped frames, want 6", got)
	}
	if n := s.Flush(); n != 4 {
		t.Fatalf("Flush drained %d frames, want 4", n)
	}
	if got := src.recycled.Load(); got != 10 {
		t.Fatalf("recycled %d total frames after Flush, want 10", got)
	}
	cancel()
	close(src.ch)
	s.Wait()
}

func TestSupervisorRestartableAcrossRuns(t *testing.T) {
	src := newScriptSource(16)
	s := New("L1", fastPolicy(), src, src)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ctx); !errors.Is(err, ErrStillRunning) {
		t.Fatalf("second Start = %v, want ErrStillRunning", err)
	}
	cancel()
	src.feed(1) // unblock the producer's pending Next
	s.Wait()

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := s.Start(ctx2); err != nil {
		t.Fatalf("restart after Wait = %v", err)
	}
	src.feed(1)
	waitFor(t, time.Second, "frame on second run", func() bool {
		f, _ := s.Next()
		return f != nil
	})
	cancel2()
	src.feed(1)
	s.Wait()
}

// bellRecorder installs a bell that reports the ring depth at each ring, so
// a test can tell which push rang it.
func bellRecorder(s *Supervisor) <-chan int {
	rang := make(chan int, 8)
	s.SetBell(func() { rang <- s.ring.len() })
	return rang
}

func TestSupervisorBellRingsOnceAtCount(t *testing.T) {
	src := newScriptSource(16)
	s := New("L1", fastPolicy(), src, src)
	rang := bellRecorder(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	src.feed(2)
	waitFor(t, time.Second, "2 frames buffered", func() bool { return s.Status().Buffered == 2 })
	if s.Arm(5) {
		t.Fatal("Arm(5) with 2 frames buffered reported them ready")
	}
	src.feed(6)
	waitFor(t, time.Second, "8 frames buffered", func() bool { return s.Status().Buffered == 8 })
	// The producer rings before its next push, so the bell has run by now.
	select {
	case n := <-rang:
		if n != 5 {
			t.Fatalf("bell rang with %d frames buffered, want 5", n)
		}
	default:
		t.Fatal("bell never rang")
	}
	select {
	case n := <-rang:
		t.Fatalf("bell rang a second time, at %d frames buffered", n)
	default:
	}
	close(src.ch) // the producer is blocked in the source's Next
	s.Wait()
}

func TestSupervisorArmWhenBufferedNeverRings(t *testing.T) {
	src := newScriptSource(16)
	s := New("L1", fastPolicy(), src, src)
	rang := bellRecorder(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	src.feed(3)
	waitFor(t, time.Second, "3 frames buffered", func() bool { return s.Status().Buffered == 3 })
	if !s.Arm(3) {
		t.Fatal("Arm(3) with 3 frames buffered armed instead of reporting them ready")
	}
	src.feed(3)
	waitFor(t, time.Second, "6 frames buffered", func() bool { return s.Status().Buffered == 6 })
	select {
	case n := <-rang:
		t.Fatalf("bell rang at %d frames buffered, but nothing was armed", n)
	default:
	}
	close(src.ch) // the producer is blocked in the source's Next
	s.Wait()
}

func TestSupervisorBellRingsWhenSourceEnds(t *testing.T) {
	src := newScriptSource(16)
	s := New("L1", fastPolicy(), src, src)
	rang := bellRecorder(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	src.feed(1)
	waitFor(t, time.Second, "1 frame buffered", func() bool { return s.Status().Buffered == 1 })
	if s.Arm(5) {
		t.Fatal("Arm(5) with 1 frame buffered reported it ready")
	}
	close(src.ch) // a plain source's clean end
	select {
	case <-rang:
	case <-time.After(5 * time.Second):
		t.Fatal("the end of the source did not ring the armed bell")
	}
	if f, err := s.Next(); f == nil || err != nil {
		t.Fatalf("Next after end = %v, %v; want the buffered frame", f, err)
	}
	if !s.Arm(1) {
		t.Fatal("Arm on an ended, drained link armed instead of reporting the end")
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after end = %v, want io.EOF", err)
	}
	s.Wait()
}

// lockstepSource serves frames in batches of sizes[i] and, before each
// next batch (and before ending), waits until the consumer reports the
// previous batch drained. The push that completes a batch is therefore the
// producer's last until the consumer acts: a lost wake-up there parks both
// sides for good.
type lockstepSource struct {
	sizes   []int
	next    int // index of the next batch to start
	left    int // frames left in the current batch
	drained chan struct{}
	f       csi.Frame
}

func (s *lockstepSource) Next() (*csi.Frame, error) {
	if s.left == 0 {
		if s.next > 0 {
			<-s.drained
		}
		if s.next == len(s.sizes) {
			return nil, io.EOF
		}
		s.left = s.sizes[s.next]
		s.next++
	}
	s.left--
	return &s.f, nil
}

// TestSupervisorBellNoLostWakeup races the producer's pushes against a
// consumer that pops, arms for the rest of the current batch and parks on
// the bell alone — no timer, no poll. Because the producer then waits for
// the consumer, a single lost wake-up hangs the test until -timeout kills
// it. Batch sizes run one past the ring's capacity to cover Arm's cap too
// (rarely: a full ring costs the producer a backpressure sleep).
func TestSupervisorBellNoLostWakeup(t *testing.T) {
	pol := fastPolicy()
	pol.RingSize = 32
	sizes := make([]int, 3000)
	for i := range sizes {
		sizes[i] = i%(pol.RingSize+1) + 1
	}
	src := &lockstepSource{sizes: sizes, drained: make(chan struct{})}
	s := New("L1", pol, src, nil)
	bell := make(chan struct{}, 1)
	s.SetBell(func() {
		select {
		case bell <- struct{}{}:
		default:
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for _, size := range sizes {
		for got := 0; got < size; {
			_, err := s.Next()
			switch {
			case err == nil:
				got++
			case errors.Is(err, ErrNoFrame):
				if !s.Arm(size - got) {
					<-bell
				}
			default:
				t.Fatalf("Next mid-batch: %v", err)
			}
		}
		src.drained <- struct{}{}
	}
	s.Wait()
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after the last batch = %v, want io.EOF", err)
	}
}
