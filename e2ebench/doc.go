// Command e2ebench is mlink's end-to-end benchmark: it follows CSI frames
// from their source to the engine's decisions, the fused site verdict and,
// on the networked workload, the SSE bytes a watcher reads, and checks every
// decision against a sequential reference engine.
//
// Run it from the repository root (the script builds this module from the
// checkout's sources into .bench_build/ and runs it):
//
//	bash e2ebench/run.sh --workload replay-empty --seed 1 --seconds 15 --trace 0
//	bash e2ebench/run.sh --workload replay-empty --seed 1 --seconds 15 --trace 1
//
// The first is a timed run and prints the end-to-end metrics; the second is
// the traced run and prints the per-layer metrics. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"};
// lines before it, starting with "#", give the workload's input properties,
// the generator lag and, when traced, the stage budget. The self-test, which
// shows the correctness check can fail, runs with
//
//	cd e2ebench && go test ./...
//
// # Workloads
//
// Every workload pre-generates its frames from scenario.LinkCase (cases 1–5
// in turn) and the seed: per link, empty-room calibration frames, an
// optional empty lead-in played once, and a recorded segment of whole
// 25-packet windows, each labelled with its ground-truth occupancy, that the
// link's source loops over, rewriting sequence numbers and timestamps on
// every pass. The receivers are calm: LinkCase's impairments without the
// slow AGC gain walk, so the cost of a window does not depend on whether a
// seed happened to draw a gain excursion. Generation is timed neither in the
// run nor in setup_s. Each run prints the input properties a later
// optimisation may depend on: occupied-window share, scheme mix, per-link
// rate, and recorded bytes against the reference host's 2 MiB L2.
//
//   - replay-empty (closed loop): 8 subcarrier-weighting links, all rooms
//     empty, a 40-window segment per link, adaptation on, KOfN{K:1},
//     unsupervised, no journal, no HTTP; two shards pull frames from memory
//     as fast as they can. It isolates the subcarrier scoring stack
//     (sanitize, μ/IDFT, weight median, RSS distance), and since nearly
//     every window is silent the adapter refreshes the profile on nearly
//     every window.
//   - replay-angular (closed loop): 4 subcarrier+path-weighting links on
//     the 1° steering grid, a person standing on every link after a
//     12-window empty lead-in (the drift monitor needs that history to see
//     the arrival as a step; a person present from the first window reads
//     as a slow walk and is absorbed). It is the only workload where music
//     (covariance, partials combine, Bartlett) and path weighting do most of
//     the work, and since the rooms are occupied the adapter mostly reads
//     without refreshing — the opposite of replay-empty.
//   - net-stream (open loop): an 8-link subcarrier site at a fixed 5000
//     frames/s per link (1600 windows/s, about a quarter of what
//     replay-empty sustains on the reference host). After a 12-window
//     lead-in a person visits one link at a time for 2 windows, a new link
//     every 8 windows, so the fused verdict flips. Link 0 streams over a
//     loopback csinet.Server read through csinet.Redialer; links 1–7 are
//     in-process sources on the same schedule. The engine runs supervised,
//     adaptive, with a fleet.Journal in a temporary directory, the fleet
//     coordinator, WeightedKOfN{K:1} fusion and the serve hub and HTTP API
//     on loopback, and one HTTP client reads /v1/stream. It is the only
//     workload that exercises csinet, supervise, fleet and serve, and the
//     only one that measures frame-to-subscriber latency.
//
// # End-to-end metrics
//
//   - setup_s: median of five builds of the stack: engine, links,
//     calibration, journal, listeners, source connections and the SSE
//     subscription.
//   - scores_per_s: windows scored per second of the measured interval.
//   - decision_latency_p50_ms: median, over the measured interval, of the
//     time from a window's last frame to its OnDecision. Closed loop: from
//     when the source handed the frame to the engine. Open loop: from when
//     the frame was due on the schedule, so a stalled generator cannot hide
//     a slow system.
//   - delivery_latency_p50_ms: median time from a round's due time until a
//     verdict that reflects the round (or a newer one) is delivered.
//     net-stream: the due time of the round's last frame to the SSE client
//     reading the event. Closed loop: the last link's hand-off of the round
//     to the report loop's VerdictInto. A verdict is credited only with
//     rounds every link had decided before it was read, never more.
//   - cpu_us_per_window: process user+sys CPU time per scored window.
//   - peak_heap_mb: peak in-use heap, sampled from runtime/metrics (which
//     does not stop the world) every 5 ms.
//   - success_rate: 1 − error_rate, where error_rate is failed over
//     attempted operations. Failures are engine errors, windows lost or
//     dropped, decisions that differ from the reference, rounds never
//     delivered, and SSE events missing or out of order. It is reported as
//     a success share because a benchmark metric must never read zero.
//   - link_accuracy: share of the first 160 per-link window decisions that
//     match ground truth, transition windows excluded. It depends on the
//     seed only, which pins detection quality.
//
// The tails are reported but not gated: e2e.decision_latency_p99_ms,
// e2e.delivery_latency_p99_ms and e2e.on_time_round_share (the share of
// rounds delivered within one window period of their due time — 5 ms on
// net-stream, the paper's 0.5 s on the closed loops, which have no schedule;
// missing rounds are late; it is 1 − late_round_share) come with the traced
// run's per-layer metrics, and every run prints them on its "#" line next
// to the generator lag. A p99 is taken per block of 1000 consecutive
// samples (ten beyond the percentile) and the median over blocks reported,
// so a stall inflates the blocks it falls in rather than the whole figure.
// They are not end-to-end metrics with a bound because on the reference
// host, a shared 2-vCPU guest, net-stream's open loop idles between frames
// and pays the host's vCPU wake-up latency on every timer: its p99 and
// on-time share moved by 30–70% between runs of the same code, while the
// closed loops' p99s stayed within 10%.
//
// # Correctness
//
// After every run the same inputs go through sequential single-worker
// engines (the links split over two of them, since a link's decisions depend
// only on its own stream), which the engine guarantees decide
// bit-identically whatever the worker count. Each link's live decision
// sequence (score bits and verdict) must match window for window. On
// net-stream the fleet coordinator's control calls are applied by the target
// link's own OnDecision, between two of its windows, and logged; the
// reference replays the log at the same windows. The coordinator runs with
// its defaults except that it never dispatches an online recalibration: a
// rebuild re-captures from the live ingest ring, whose contents at that
// moment depend on timing, so nothing could replay it. The self-test
// injects a dropped window, a corrupted decision and broken SSE ids and
// checks each is counted.
//
// # Per-layer metrics and what they should move
//
// The traced run (--trace 1) measures the first half of the interval
// untraced and the second half with spans on. Spans cover the boundaries the
// benchmark owns — source Next, OnDecision, VerdictInto/MetricsInto, journal
// AppendDelta, Coordinator.Observe, hub publish and SSE read — are kept in
// memory and written to .bench_build/spans/<workload>-seed<n>.jsonl at the
// end. A stage pass then re-executes one lead-in plus one segment pass of
// each link's windows through the layers' public functions. The program
// itself is not instrumented. Layers that do not run on a workload read 0.
//
//	loadgen.lag_p99_ms            generator lateness; moves nothing, shows the run is valid
//	csinet.decode_us, .reconnects → decision_latency_p50_ms, cpu_us_per_window (net-stream)
//	supervise.drops               → success_rate (net-stream)
//	supervise.handoff_wait_us_p50 → decision_latency_p50_ms (net-stream); ≈0 on replays
//	sanitize.frames_us            → scores_per_s (replay-empty)
//	core.mu_us                    → scores_per_s (replay-empty; less on replay-angular)
//	core.weights_us               → scores_per_s (replay-empty)
//	core.score_us                 → scores_per_s (both replays), cpu_us_per_window (net-stream)
//	core.unattributed_share       share of score time no measured stage covers
//	core.sanitize/mu/weights_share the stage budget of core.score_us
//	music.covariance/partials/bartlett_us → scores_per_s (replay-angular only)
//	adapt.observe_us, .refresh_share → scores_per_s (replay-empty; ≈1 there, ≈0 on replay-angular)
//	engine.fuse_us                → delivery_latency_p50_ms (net-stream)
//	engine.shard_utilization, .steals_per_kwindow → scores_per_s (replays)
//	fleet.journal_append_us, .journal_sync_ms, .observe_us → e2e.decision/delivery_latency_p99_ms (net-stream)
//	serve.encode_us, .encodes_per_round, .deliver_us_p50/_p99, .dropped, .shed
//	                              → delivery_latency_p50_ms, e2e.delivery_latency_p99_ms,
//	                                e2e.on_time_round_share (net-stream)
//	runtime.gc_pause_ms_per_kwindow, .alloc_bytes_per_window → e2e.decision_latency_p99_ms (all)
//	trace.overhead_share          traced vs untraced scores_per_s (replays), cpu_us_per_window (net-stream)
//	e2e.*                         the ungated tails described above
//
// On replay-empty the stage budget line reports the sanitize, μ and weight
// (median) shares of core.score_us, against which an optimisation should be
// chosen.
package main
