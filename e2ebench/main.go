package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mlink/internal/core"
)

const (
	// workers is the engine's shard count: the reference host's nproc.
	workers = 2
	// setupReps is how many times a run builds its stack; setup_s is the
	// median, and the last build is the one measured.
	setupReps = 5
	// warmup runs before the measured interval so scratches, pools and
	// adaptation state settle.
	warmup = 500 * time.Millisecond
	// paperRate is the paper's packet rate (§IV-C, 50 packets/s); closed-loop
	// sources stamp timestamps at it, and its window period (0.5 s) is the
	// closed loop's on-time deadline.
	paperRate     = 50.0
	paperWindowNs = int64(windowSize / paperRate * 1e9)
)

// workload is one named benchmark workload.
type workload interface {
	run(seed int64, seconds float64, traced bool) (*outcome, error)
}

var workloads = map[string]workload{
	"replay-empty": replayWorkload{links: 8, segWindows: 40, scheme: core.SchemeSubcarrier,
		maxWindowsPerSec: 24000},
	"replay-angular": replayWorkload{links: 4, lead: 12, segWindows: 40, scheme: core.SchemeSubcarrierPath,
		occupied: true, maxWindowsPerSec: 24000},
	"net-stream": netWorkload{},
}

// outcome is everything one run measured.
type outcome struct {
	props        inputProps
	setup        []float64 // seconds per build
	windows      int       // windows scored in the measured (untraced) interval
	elapsed      float64   // seconds of that interval
	decisions    []timed   // per window, ms
	deliveries   []timed   // per round, ms
	onTime       float64
	cpuPerWindow float64 // µs
	peakHeapMB   float64
	attempted    int
	failed       int
	accuracy     float64
	lagMs        []float64 // generator lateness per frame (open loop)
	layers       map[string]float64
	tr           *tracer
}

// deliver fills the delivery figures: round r (due at due[r]) is delivered
// by the first report whose credit exceeds r. Only rounds due inside
// [from, to) count; a round never delivered is late and a failure.
func (o *outcome) deliver(due []int64, reports []report, from, to, periodNs int64) {
	p := 0
	var rounds, onTime int
	for r, d := range due {
		for p < len(reports) && reports[p].credit <= int64(r) {
			p++
		}
		if d < from || d >= to {
			continue
		}
		rounds++
		o.attempted++
		if p == len(reports) {
			o.failed++
			continue
		}
		lat := reports[p].at - d
		o.deliveries = append(o.deliveries, timed{at: d, ms: float64(lat) / 1e6})
		if lat <= periodNs {
			onTime++
		}
	}
	if rounds > 0 {
		o.onTime = float64(onTime) / float64(rounds)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timed is one latency sample and when it was taken.
type timed struct {
	at int64
	ms float64
}

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// tailBlock is the sample count per block of blockP99: the largest share
// of a block that its 99th percentile leaves beyond is ten samples.
const tailBlock = 1000

// blockP99 is the tail figure of a latency series. The samples, in time
// order, are cut into blocks of tailBlock; each block's 99th percentile is
// taken and the median over blocks reported, so a host stall inflates the
// blocks it falls in rather than the whole figure. A series shorter than
// one block gives its plain 99th percentile.
func blockP99(xs []timed) float64 {
	s := append([]timed(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	v := values(s)
	if len(v) < tailBlock {
		return quantile(v, 0.99)
	}
	var p99s []float64
	for i := 0; i+tailBlock <= len(v); i += tailBlock {
		p99s = append(p99s, quantile(v[i:i+tailBlock], 0.99))
	}
	return median(p99s)
}

func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":                 {median(o.setup), "s"},
		"scores_per_s":            {float64(o.windows) / o.elapsed, "1/s"},
		"decision_latency_p50_ms": {median(values(o.decisions)), "ms"},
		"delivery_latency_p50_ms": {median(values(o.deliveries)), "ms"},
		"cpu_us_per_window":       {o.cpuPerWindow, "us"},
		"peak_heap_mb":            {o.peakHeapMB, "MiB"},
		"success_rate":            {1 - float64(o.failed)/float64(o.attempted), "share"},
		"link_accuracy":           {o.accuracy, "share"},
	}
}

// layerUnits lists every per-layer metric with its unit. Layers that do not
// run on a workload report zero.
var layerUnits = map[string]string{
	"loadgen.lag_p99_ms":              "ms",
	"csinet.decode_us":                "us",
	"csinet.reconnects":               "count",
	"supervise.drops":                 "count",
	"supervise.handoff_wait_us_p50":   "us",
	"sanitize.frames_us":              "us",
	"core.mu_us":                      "us",
	"core.weights_us":                 "us",
	"core.score_us":                   "us",
	"core.unattributed_share":         "share",
	"core.sanitize_share":             "share",
	"core.mu_share":                   "share",
	"core.weights_share":              "share",
	"music.covariance_us":             "us",
	"music.partials_us":               "us",
	"music.bartlett_us":               "us",
	"adapt.observe_us":                "us",
	"adapt.refresh_share":             "share",
	"engine.fuse_us":                  "us",
	"engine.shard_utilization":        "share",
	"engine.steals_per_kwindow":       "count",
	"fleet.journal_append_us":         "us",
	"fleet.journal_sync_ms":           "ms",
	"fleet.observe_us":                "us",
	"serve.encode_us":                 "us",
	"serve.encodes_per_round":         "count",
	"serve.deliver_us_p50":            "us",
	"serve.deliver_us_p99":            "us",
	"serve.dropped":                   "count",
	"serve.shed":                      "count",
	"runtime.gc_pause_ms_per_kwindow": "ms",
	"runtime.alloc_bytes_per_window":  "B",
	"trace.overhead_share":            "share",
	"e2e.decision_latency_p99_ms":     "ms",
	"e2e.delivery_latency_p99_ms":     "ms",
	"e2e.on_time_round_share":         "share",
}

func (o *outcome) perLayer() map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{o.layers[name], unit}
	}
	// The tail of the end-to-end path, taken over the traced run's untraced
	// half. On a shared 2-vCPU guest an open loop that idles between frames
	// pays the host's vCPU wake-up latency on every timer, so these figures
	// move by half from one run to the next on net-stream and carry no
	// bound; the closed loops keep them within a tenth.
	out["e2e.decision_latency_p99_ms"] = metric{blockP99(o.decisions), "ms"}
	out["e2e.delivery_latency_p99_ms"] = metric{blockP99(o.deliveries), "ms"}
	out["e2e.on_time_round_share"] = metric{o.onTime, "share"}
	return out
}

func main() {
	name := flag.String("workload", "", "workload: replay-empty, replay-angular or net-stream")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o, err := w.run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		path := filepath.Join(benchDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := o.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
	info, _ := json.Marshal(o.props)
	fmt.Printf("# inputs %s\n", info)
	fmt.Printf("# windows=%d rounds=%d decision_p99_ms=%.4f delivery_p99_ms=%.4f on_time_round_share=%.4f loadgen.lag_p99_ms=%.4f attempted=%d failed=%d\n",
		o.windows, len(o.deliveries), blockP99(o.decisions), blockP99(o.deliveries), o.onTime,
		quantile(o.lagMs, 0.99), o.attempted, o.failed)
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	if *trace == 1 {
		res.Metrics = o.perLayer()
		fmt.Printf("# stage budget: core.unattributed_share=%.3f trace.overhead_share=%.3f sanitize=%.3f mu=%.3f weights=%.3f of core.score_us\n",
			o.layers["core.unattributed_share"], o.layers["trace.overhead_share"],
			o.layers["core.sanitize_share"], o.layers["core.mu_share"], o.layers["core.weights_share"])
	} else {
		res.Metrics = o.endToEnd()
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// phaseSnap is the cumulative state at one phase boundary.
type phaseSnap struct {
	at      int64
	windows int64
	cpu     int64
	rt      runtimeSnap
}

// phases are a run's boundaries: warm-up end, the untraced/traced split
// (the end itself in an untraced run) and the end.
type phases struct {
	warm, split, end phaseSnap
	peakHeapMB       float64
}

func (p *phases) untracedRate() float64 {
	return float64(p.split.windows-p.warm.windows) / (float64(p.split.at-p.warm.at) / 1e9)
}

func (p *phases) tracedRate() float64 {
	return float64(p.end.windows-p.split.windows) / (float64(p.end.at-p.split.at) / 1e9)
}

func (p *phases) untracedCPU() float64 {
	return float64(p.split.cpu-p.warm.cpu) / float64(p.split.windows-p.warm.windows)
}

func (p *phases) tracedCPU() float64 {
	return float64(p.end.cpu-p.split.cpu) / float64(p.end.windows-p.split.windows)
}

func (p *phases) runtimeLayers(l map[string]float64) {
	wins := float64(p.end.windows - p.warm.windows)
	l["runtime.gc_pause_ms_per_kwindow"] = float64(p.end.rt.gcPauseNs-p.warm.rt.gcPauseNs) / 1e6 / (wins / 1e3)
	l["runtime.alloc_bytes_per_window"] = float64(p.end.rt.allocBytes-p.warm.rt.allocBytes) / wins
}

// runPhases drives one measured run. run starts at once; the warm-up ends
// warmup after start (ns on the benchmark clock), tracing switches on at the
// midpoint of the measured seconds in a traced run, and run's context is
// cancelled drain after the measured interval ends. windows reports the
// fleet's scored windows.
func runPhases(start int64, drain time.Duration, seconds float64, traced bool, tr *tracer,
	run func(context.Context) error, windows func() int64) (*phases, error) {
	settle()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	heap := startHeapSampler(5 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()
	snap := func(at int64) (phaseSnap, error) {
		if d := time.Duration(at - nowNs()); d > 0 {
			select {
			case err := <-done:
				return phaseSnap{}, fmt.Errorf("run ended early: %v", err)
			case <-time.After(d):
			}
		}
		return phaseSnap{at: nowNs(), windows: windows(), cpu: cpuNs(), rt: readRuntime()}, nil
	}
	var p phases
	var err error
	measured := int64(seconds * 1e9)
	warmEnd := start + int64(warmup)
	if p.warm, err = snap(warmEnd); err != nil {
		heap.Stop()
		return nil, err
	}
	if traced {
		if p.split, err = snap(warmEnd + measured/2); err != nil {
			heap.Stop()
			return nil, err
		}
		tr.on.Store(true)
	}
	if p.end, err = snap(warmEnd + measured); err != nil {
		heap.Stop()
		return nil, err
	}
	if !traced {
		p.split = p.end
	}
	if drain > 0 {
		time.Sleep(drain)
	}
	cancel()
	runErr := <-done
	tr.on.Store(false)
	p.peakHeapMB = heap.Stop()
	return &p, runErr
}
