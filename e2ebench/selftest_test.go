package main

import (
	"context"
	"math"
	"testing"

	"mlink/internal/core"
	"mlink/internal/engine"
)

// TestCheckCountsInjectedFaults shows the correctness check can fail: a
// real two-worker run matches its sequential reference exactly, and one
// dropped window, one corrupted decision, one missing SSE event and one
// out-of-order SSE event are each counted.
func TestCheckCountsInjectedFaults(t *testing.T) {
	w := replayWorkload{links: 3, segWindows: 6, scheme: core.SchemeSubcarrier, maxWindowsPerSec: 1000}
	links, err := w.inputs(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.setup(links, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	st.s.arm(64)
	for i, src := range st.srcs {
		src.rec = st.s.recs[i]
	}
	const windows = 20
	if err := st.e.Run(context.Background(), windows); err != nil {
		t.Fatal(err)
	}
	live := st.s.liveDecisions()
	expected := make([]int, len(links))
	for i, r := range st.s.recs {
		expected[i] = len(r.handoff)
		if expected[i] != windows || len(live[i]) != windows {
			t.Fatalf("link %d: %d windows handed off, %d decided, want %d", i, expected[i], len(live[i]), windows)
		}
	}
	ref, err := reference(links, expected, engine.KOfN{K: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := windowFailures(expected, live, ref); n != 0 {
		t.Fatalf("clean run: %d failures, want 0", n)
	}

	live[0] = live[0][:windows-1] // a window handed off but never decided
	live[1][7].present = !live[1][7].present
	if n := windowFailures(expected, live, ref); n != 2 {
		t.Fatalf("one dropped window and one corrupted decision: %d failures, want 2", n)
	}
	live[1][7].present = !live[1][7].present
	live[2][3].score = math.Nextafter(live[2][3].score, math.Inf(1))
	if n := windowFailures(expected, live, ref); n != 2 {
		t.Fatalf("a score one ulp off must count: %d failures, want 2", n)
	}

	events := []sseEvent{{id: 1}, {id: 2}, {id: 3}}
	if n := eventFailures(events); n != 0 {
		t.Fatalf("gapless events: %d failures, want 0", n)
	}
	if n := eventFailures([]sseEvent{{id: 1}, {id: 3}}); n != 1 {
		t.Fatalf("a missing event: %d failures, want 1", n)
	}
	if n := eventFailures([]sseEvent{{id: 1}, {id: 3}, {id: 2}}); n != 2 {
		t.Fatalf("a gap then a step back: %d failures, want 2", n)
	}
}

// TestDeliveryCreditsOnlyContainedRounds checks the delivery accounting: a
// report is credited only with rounds below its credit, and rounds no
// report reaches are late failures.
func TestDeliveryCreditsOnlyContainedRounds(t *testing.T) {
	due := []int64{10, 20, 30, 40}
	reports := []report{{at: 25, credit: 1}, {at: 35, credit: 3}}
	var o outcome
	o.deliver(due, reports, 0, 100, 10)
	// Round 0 by the first report (15), rounds 1 and 2 by the second (15,
	// 5); round 3 never.
	want := []float64{15e-6, 15e-6, 5e-6}
	got := values(o.deliveries)
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	if o.attempted != 4 || o.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1", o.attempted, o.failed)
	}
	if o.onTime != 0.25 {
		t.Fatalf("on-time share %v, want 0.25 (only round 2 within one period)", o.onTime)
	}
}

// TestBlockP99 checks the tail statistic: a stall confined to one block
// moves that block's 99th percentile, not the reported median over blocks.
func TestBlockP99(t *testing.T) {
	var xs []timed
	for i := 0; i < 5*tailBlock; i++ {
		ms := 1.0
		if i%100 == 0 {
			ms = 2
		}
		if i >= 3*tailBlock && i < 3*tailBlock+50 {
			ms = 40 // a stall in the fourth block
		}
		xs = append(xs, timed{at: int64(5*tailBlock - i), ms: ms})
	}
	if got := blockP99(xs); got != 1 {
		t.Fatalf("blockP99 = %v, want 1", got)
	}
	short := xs[3*tailBlock : 3*tailBlock+tailBlock/2] // holds the stall
	if got := blockP99(short); got != 40 {
		t.Fatalf("short series: blockP99 = %v, want its plain p99 40", got)
	}
}
