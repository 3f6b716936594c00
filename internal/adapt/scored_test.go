package adapt

import (
	"errors"
	"fmt"
	"testing"

	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// adaptiveArm is one calibrated detector plus its adapter.
type adaptiveArm struct {
	det *core.Detector
	ad  *Adapter
	sc  *core.Scratch
}

func newArm(t *testing.T, cfg core.Config, cal []*csi.Frame, null []float64, pol Policy) *adaptiveArm {
	t.Helper()
	profile, err := core.Calibrate(cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.CalibrateThreshold(null, 0.95, 1.3); err != nil {
		t.Fatal(err)
	}
	ad, err := NewAdapter(pol, det, null)
	if err != nil {
		t.Fatal(err)
	}
	return &adaptiveArm{det: det, ad: ad, sc: core.NewScratch()}
}

func sameProfile(a, b *core.Profile) error {
	for ant := range a.MeanAmp {
		for k := range a.MeanAmp[ant] {
			if a.MeanAmp[ant][k] != b.MeanAmp[ant][k] || a.MeanRSSdB[ant][k] != b.MeanRSSdB[ant][k] {
				return fmt.Errorf("[%d][%d]: (%v, %v) vs (%v, %v)", ant, k,
					a.MeanAmp[ant][k], a.MeanRSSdB[ant][k], b.MeanAmp[ant][k], b.MeanRSSdB[ant][k])
			}
		}
	}
	return nil
}

// TestObserveScoredMatchesObserve checks that refreshing from the window the
// score already prepared (ObserveScored) is bit-identical to re-preparing
// it (Observe): same decisions, profiles and Health after every window of a
// sequence that refreshes, tracks, sees a person and relocks — for every
// scheme, with sanitization on and off.
func TestObserveScoredMatchesObserve(t *testing.T) {
	s, err := scenario.Classroom(71)
	if err != nil {
		t.Fatal(err)
	}
	person := []body.Body{body.Default(s.LinkMidpoint())}
	for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemeSubcarrier, core.SchemeSubcarrierPath} {
		for _, sanitize := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/sanitize=%v", scheme, sanitize), func(t *testing.T) {
				x, err := s.NewExtractor(1)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
				cfg.Sanitize = sanitize
				cal := x.CaptureN(100, nil)
				profile, err := core.Calibrate(cfg, cal)
				if err != nil {
					t.Fatal(err)
				}
				probe, err := core.NewDetector(cfg, profile)
				if err != nil {
					t.Fatal(err)
				}
				null, err := probe.SelfScores(x.CaptureN(100, nil), 25, 25)
				if err != nil {
					t.Fatal(err)
				}
				pol := Policy{RederiveEvery: 3}
				plain := newArm(t, cfg, cal, null, pol)
				scored := newArm(t, cfg, cal, null, pol)

				refreshes := uint64(0)
				for w := 0; w < 14; w++ {
					var bodies []body.Body
					if w == 6 || w == 7 {
						bodies = person
					}
					if w == 10 {
						plain.ad.RequestRelock()
						scored.ad.RequestRelock()
					}
					window := x.CaptureN(25, bodies)
					pDec, err := plain.det.DetectScratch(window, plain.sc)
					if err != nil {
						t.Fatal(err)
					}
					pHealth, err := plain.ad.Observe(window, pDec)
					if err != nil {
						t.Fatal(err)
					}
					sDec, err := scored.det.DetectScratch(window, scored.sc)
					if err != nil {
						t.Fatal(err)
					}
					sHealth, err := scored.ad.ObserveScored(scored.sc, sDec)
					if err != nil {
						t.Fatal(err)
					}
					if pDec != sDec {
						t.Fatalf("window %d: decision %+v vs %+v", w, pDec, sDec)
					}
					if pHealth != sHealth || plain.ad.Health() != scored.ad.Health() {
						t.Fatalf("window %d: health %+v vs %+v", w, pHealth, sHealth)
					}
					if err := sameProfile(plain.det.Profile(), scored.det.Profile()); err != nil {
						t.Fatalf("window %d: profile %v", w, err)
					}
					refreshes = sHealth.Refreshes
				}
				if refreshes == 0 || scored.ad.Health().Relocks != 1 {
					t.Fatalf("sequence exercised %d refreshes, %d relocks; want both", refreshes, scored.ad.Health().Relocks)
				}
			})
		}
	}
}

// TestObserveScoredRejectsForeignScratch checks that a refresh fed a scratch
// the adapter's detector did not score fails instead of folding another
// link's window into the profile.
func TestObserveScoredRejectsForeignScratch(t *testing.T) {
	h := newHarness(t, 73)
	a, err := NewAdapter(Policy{}, h.det, h.null)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveScored(nil, core.Decision{}); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("nil scratch: err = %v, want ErrBadInput", err)
	}
	window := h.x.CaptureN(25, nil)
	dec, err := h.det.DetectScratch(window, h.sc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Present || dec.Score > a.Policy().SilentFraction*dec.Threshold {
		t.Fatalf("empty window not silent (score %v, threshold %v); the refresh path is not exercised", dec.Score, dec.Threshold)
	}
	// A silent decision forces a refresh; the fresh scratch holds no window.
	if _, err := a.ObserveScored(core.NewScratch(), dec); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("unscored scratch: err = %v, want ErrBadInput", err)
	}
	if _, err := a.ObserveScored(h.sc, dec); err != nil {
		t.Fatalf("scored scratch: %v", err)
	}
}
