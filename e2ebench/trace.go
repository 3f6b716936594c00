package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every benchmark timestamp; nowNs reads the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// spanKind names a boundary the benchmark owns.
type spanKind uint8

const (
	spanSourceNext    spanKind = iota // a window's last frame leaving its source
	spanDecision                      // the OnDecision callback
	spanFuse                          // Engine.VerdictInto for one round
	spanMetrics                       // Engine.MetricsInto for one round
	spanObserve                       // fleet Coordinator.Observe
	spanJournalAppend                 // journal writer AppendDelta
	spanPublish                       // hub publish: verdict read to SSE read
	spanSSERead                       // SSE event read by the HTTP client
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"source.next", "engine.decision", "engine.fuse", "engine.metrics",
	"fleet.observe", "fleet.journal_append", "serve.publish", "serve.sse_read"}

// span is one traced interval. id is the window index for per-link spans and
// the round index for round spans, so spans of one window or round share it;
// link is 255 for round-level spans.
type span struct {
	start, end int64
	id         uint32
	link       uint8
	kind       spanKind
}

// maxSpansPerBuf bounds one owner's span memory in a traced run.
const maxSpansPerBuf = 1 << 20

// spanBuf is a single-owner span buffer: every goroutine (or lock-holder)
// that records spans has its own, so tracing takes no lock.
type spanBuf struct {
	spans   []span
	dropped int
}

func (b *spanBuf) add(kind spanKind, link uint8, id uint32, start, end int64) {
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{start: start, end: end, id: id, link: link, kind: kind})
}

// tracer is the switch every span site checks, plus the buffers it hands
// out, collected at the end of the run.
type tracer struct {
	on   atomic.Bool
	mu   sync.Mutex
	bufs []*spanBuf
}

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{spans: make([]span, 0, 1024)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// durations returns the durations in µs of every span of one kind.
func (t *tracer) durations(kind spanKind) []float64 {
	var out []float64
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.kind == kind {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}

// write dumps every span as one JSON line to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	dropped := 0
	for _, b := range t.bufs {
		dropped += b.dropped
		for _, s := range b.spans {
			link := -1
			if s.link != roundLink {
				link = int(s.link)
			}
			fmt.Fprintf(w, "{\"name\":%q,\"link\":%d,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
				spanNames[s.kind], link, s.id, s.start, s.end)
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// roundLink marks round-level spans.
const roundLink = 255

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuNs is the process's user+sys CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapSampler records the peak in-use heap by polling runtime/metrics,
// which reads without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeSnap holds the cumulative runtime counters a run is diffed over.
type runtimeSnap struct {
	allocBytes uint64
	gcPauseNs  int64
}

func readRuntime() runtimeSnap {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	return runtimeSnap{allocBytes: sample[0].Value.Uint64(), gcPauseNs: int64(gs.PauseTotal)}
}

// settle runs a GC so each measured interval starts from a comparable heap.
func settle() { runtime.GC() }
