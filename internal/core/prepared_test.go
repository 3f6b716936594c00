package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mlink/internal/csi"
)

// perPacketMeanStats is the reference fingerprint: the mean of each packet's
// per-subcarrier RSS in dB (one Log10 per packet, via SubcarrierRSSdB) and
// the mean linear amplitude. meanStatsInto must agree with it to rounding.
func perPacketMeanStats(frames []*csi.Frame) WindowStats {
	nAnt, nSub := frames[0].NumAntennas(), frames[0].NumSubcarriers()
	ws := WindowStats{MeanAmp: zeros2(nAnt, nSub), MeanRSSdB: zeros2(nAnt, nSub)}
	for _, f := range frames {
		for ant := 0; ant < nAnt; ant++ {
			rss := SubcarrierRSSdB(f.CSI[ant])
			for k := 0; k < nSub; k++ {
				ws.MeanAmp[ant][k] += cmplx.Abs(f.CSI[ant][k])
				ws.MeanRSSdB[ant][k] += rss[k]
			}
		}
	}
	scale := 1 / float64(len(frames))
	for ant := 0; ant < nAnt; ant++ {
		for k := 0; k < nSub; k++ {
			ws.MeanAmp[ant][k] *= scale
			ws.MeanRSSdB[ant][k] *= scale
		}
	}
	return ws
}

// randomWindow draws m frames of nAnt×nSub CSI whose powers are
// log-uniform over [10^loDec, 10^hiDec].
func randomWindow(rng *rand.Rand, m, nAnt, nSub int, loDec, hiDec float64) []*csi.Frame {
	frames := make([]*csi.Frame, m)
	for i := range frames {
		f := csi.NewFrame(nAnt, nSub)
		for ant := range f.CSI {
			for k := range f.CSI[ant] {
				p := math.Pow(10, loDec+(hiDec-loDec)*rng.Float64())
				f.CSI[ant][k] = cmplx.Rect(math.Sqrt(p), 2*math.Pi*rng.Float64())
			}
		}
		frames[i] = f
	}
	return frames
}

// TestMeanRSSdBMatchesPerPacketOracle pins the log-of-product mean RSS to
// the per-packet mean of logs within 1e-9 dB: on random windows, on powers
// far below and above the rescue bounds (where a naive running product
// would underflow or overflow), and with a zero-power subcarrier, which
// must read −Inf in both.
func TestMeanRSSdBMatchesPerPacketOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ranges := []struct {
		name         string
		loDec, hiDec float64
	}{
		{"typical", -6, 6},
		{"tiny", -300, -150},
		{"huge", 150, 300},
		{"full-range", -300, 300},
	}
	for _, r := range ranges {
		for trial := 0; trial < 40; trial++ {
			m, nAnt, nSub := 1+rng.Intn(60), 1+rng.Intn(3), 1+rng.Intn(30)
			frames := randomWindow(rng, m, nAnt, nSub, r.loDec, r.hiDec)
			zeroAnt, zeroSub := rng.Intn(nAnt), rng.Intn(nSub)
			if trial%4 == 0 {
				frames[rng.Intn(m)].CSI[zeroAnt][zeroSub] = 0
			}
			want := perPacketMeanStats(frames)
			var got WindowStats
			meanStatsInto(&got, frames, make([]float64, nSub))
			for ant := 0; ant < nAnt; ant++ {
				for k := 0; k < nSub; k++ {
					g, w := got.MeanRSSdB[ant][k], want.MeanRSSdB[ant][k]
					if math.IsInf(w, -1) {
						if !math.IsInf(g, -1) {
							t.Fatalf("%s trial %d [%d][%d]: zero-power subcarrier mean %v, want -Inf", r.name, trial, ant, k, g)
						}
						continue
					}
					if math.Abs(g-w) > 1e-9 {
						t.Fatalf("%s trial %d [%d][%d] (M=%d): mean RSS %v dB, oracle %v dB (Δ %g)",
							r.name, trial, ant, k, m, g, w, g-w)
					}
				}
			}
		}
	}
}

// TestScoreUsesProfileMeanRSS checks scoring and calibration share one
// mean-RSS definition: a window scored against its own calibration
// profile has exactly zero Δs on every subcarrier, so its
// subcarrier-weighting score is exactly 0.
func TestScoreUsesProfileMeanRSS(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 19)
	cfg := DefaultConfig(grid, SchemeSubcarrier, nil)
	window := x.CaptureN(25, nil)
	profile, err := Calibrate(cfg, window)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	score, err := det.ScoreScratch(window, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Fatalf("self-score %v, want exactly 0", score)
	}
}

func sameStats(t *testing.T, what string, got, want *WindowStats) {
	t.Helper()
	for ant := range want.MeanAmp {
		for k := range want.MeanAmp[ant] {
			if got.MeanAmp[ant][k] != want.MeanAmp[ant][k] || got.MeanRSSdB[ant][k] != want.MeanRSSdB[ant][k] {
				t.Fatalf("%s [%d][%d]: (%v, %v), want (%v, %v)", what, ant, k,
					got.MeanAmp[ant][k], got.MeanRSSdB[ant][k], want.MeanAmp[ant][k], want.MeanRSSdB[ant][k])
			}
		}
	}
}

// TestMeasurePreparedGuards checks MeasurePrepared refuses every scratch
// that does not hold a window successfully scored by the detector's own
// kernel.
func TestMeasurePreparedGuards(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 31)
	cfg := DefaultConfig(grid, SchemeSubcarrier, nil)
	profile, err := Calibrate(cfg, x.CaptureN(60, nil))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	var ws WindowStats
	sc := NewScratch()

	if err := det.MeasurePrepared(&ws, sc); !errors.Is(err, ErrBadInput) {
		t.Fatalf("fresh scratch: err = %v, want ErrBadInput", err)
	}
	if err := det.MeasurePrepared(&ws, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil scratch: err = %v, want ErrBadInput", err)
	}

	window := x.CaptureN(25, nil)
	if _, err := det.ScoreScratch(window, sc); err != nil {
		t.Fatal(err)
	}
	if err := det.MeasurePrepared(&ws, sc); err != nil {
		t.Fatalf("after a good score: %v", err)
	}
	if err := det.MeasurePrepared(nil, sc); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil stats: err = %v, want ErrBadInput", err)
	}

	// A failed score clears the window the previous one left behind: an
	// empty window, and a window whose shape mismatches the profile (it
	// fails after sanitizing into the scratch).
	if _, err := det.ScoreScratch(nil, sc); err == nil {
		t.Fatal("empty window scored")
	}
	if err := det.MeasurePrepared(&ws, sc); !errors.Is(err, ErrBadInput) {
		t.Fatalf("after a failed score: err = %v, want ErrBadInput", err)
	}
	if _, err := det.ScoreScratch(window, sc); err != nil {
		t.Fatal(err)
	}
	narrow := make([]*csi.Frame, len(window))
	for i, f := range window {
		narrow[i] = &csi.Frame{CSI: f.CSI[:2]}
	}
	if _, err := det.ScoreScratch(narrow, sc); err == nil {
		t.Fatal("mis-shaped window scored")
	}
	if err := det.MeasurePrepared(&ws, sc); !errors.Is(err, ErrBadInput) {
		t.Fatalf("after a failed shape check: err = %v, want ErrBadInput", err)
	}

	// A window scored by another kernel — even one of the same config —
	// belongs to another link.
	if _, err := other.ScoreScratch(window, sc); err != nil {
		t.Fatal(err)
	}
	if err := det.MeasurePrepared(&ws, sc); !errors.Is(err, ErrBadInput) {
		t.Fatalf("foreign kernel: err = %v, want ErrBadInput", err)
	}
	if err := other.MeasurePrepared(&ws, sc); err != nil {
		t.Fatalf("owning kernel: %v", err)
	}
}

// TestMeasurePreparedReadsRawWindow checks that with Sanitize off the
// prepared window is the raw window the score read, not a copy or a
// sanitized version of it.
func TestMeasurePreparedReadsRawWindow(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 41)
	cfg := DefaultConfig(grid, SchemeSubcarrier, nil)
	cfg.Sanitize = false
	profile, err := Calibrate(cfg, x.CaptureN(60, nil))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	window := x.CaptureN(25, nil)
	sc := NewScratch()
	if _, err := det.ScoreScratch(window, sc); err != nil {
		t.Fatal(err)
	}
	var got, want WindowStats
	if err := det.MeasurePrepared(&got, sc); err != nil {
		t.Fatal(err)
	}
	meanStatsInto(&want, window, make([]float64, grid.Len()))
	sameStats(t, "raw window", &got, &want)

	sanitized, err := prepare(DefaultConfig(grid, SchemeSubcarrier, nil), window)
	if err != nil {
		t.Fatal(err)
	}
	var san WindowStats
	meanStatsInto(&san, sanitized, make([]float64, grid.Len()))
	if san.MeanAmp[0][0] == got.MeanAmp[0][0] && san.MeanRSSdB[0][0] == got.MeanRSSdB[0][0] {
		t.Fatal("sanitized and raw stats coincide; the test cannot tell them apart")
	}
}
