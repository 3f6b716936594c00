package experiments

import (
	"fmt"
	"strings"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// DriftExperimentConfig sizes the frozen-vs-adaptive drift comparison.
type DriftExperimentConfig struct {
	// Case is the Fig. 6 link case (default 2, the 4 m classroom link).
	Case int
	// Scheme is the detection variant (default SchemeSubcarrier).
	Scheme core.Scheme
	// Preset is the drift mechanism (default GainWalk(12)).
	Preset scenario.DriftPreset
	// CalibrationPackets is N (default 150).
	CalibrationPackets int
	// MonitorMultiple sets the empty-room monitoring length as a multiple
	// of the calibration length (default 10 — the acceptance horizon).
	MonitorMultiple int
	// WindowPackets is M (default 25).
	WindowPackets int
	// OccupiedTailWindows appends windows with a person on the link after
	// the empty run, checking adaptation did not trade away sensitivity
	// (default 4).
	OccupiedTailWindows int
	// Policy is the adaptation policy (zero value = package defaults).
	Policy adapt.Policy
	// Seed drives the simulation.
	Seed int64
}

func (c DriftExperimentConfig) withDefaults() DriftExperimentConfig {
	if c.Case <= 0 {
		c.Case = 2
	}
	if c.Scheme == 0 {
		c.Scheme = core.SchemeSubcarrier
	}
	if c.Preset.Kind == 0 {
		c.Preset = scenario.GainWalk(12)
	}
	if c.CalibrationPackets <= 0 {
		c.CalibrationPackets = 150
	}
	if c.MonitorMultiple <= 0 {
		c.MonitorMultiple = 10
	}
	if c.WindowPackets <= 0 {
		c.WindowPackets = 25
	}
	if c.OccupiedTailWindows < 0 {
		c.OccupiedTailWindows = 0
	} else if c.OccupiedTailWindows == 0 {
		c.OccupiedTailWindows = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DriftArm is one detector's outcome over the drifting run.
type DriftArm struct {
	// Name labels the arm ("frozen", "adaptive").
	Name string
	// Windows and FalsePositives cover the empty-room monitoring run.
	Windows, FalsePositives int
	// FPR is FalsePositives/Windows.
	FPR float64
	// TailDetections counts detected occupied tail windows (of TailWindows).
	TailDetections, TailWindows int
	// FinalThreshold is the decision threshold at the end of the run.
	FinalThreshold float64
	// Health is the adaptive arm's snapshot at the end of the EMPTY
	// monitoring run, before any occupied tail (zero for frozen).
	Health adapt.Health
	// TailHealth is the snapshot after the occupied tail — a person parked
	// on the link for several windows legitimately drives the link towards
	// quarantine (single-link ambiguity; fusion and recalibration resolve
	// it), so it is reported separately rather than polluting Health.
	TailHealth adapt.Health
}

// DriftResult compares a frozen and an adaptive detector on one drifting
// stream — the experiment behind the repo's "turn the drift caveat into a
// handled scenario" claim.
type DriftResult struct {
	Config           DriftExperimentConfig
	Frozen, Adaptive DriftArm
	// FinalDriftDB is the gain-walk offset at the end of the run (0 for
	// other presets).
	FinalDriftDB float64
}

// RunDriftAdaptation runs one drifting link twice over the same captured
// frames: a frozen detector (profile and threshold fixed at calibration, as
// in PR 1–2) and an adaptive one (silent-window EWMA refresh + online
// threshold re-derivation). Calibration, holdout and monitoring all come
// from a single DriftStream, so the drift accumulates across phases exactly
// as it would on a live link.
func RunDriftAdaptation(cfg DriftExperimentConfig) (*DriftResult, error) {
	cfg = cfg.withDefaults()
	s, err := scenario.LinkCase(cfg.Case, cfg.Seed)
	if err != nil {
		return nil, err
	}
	stream, err := s.NewDriftStream(cfg.Preset, 1)
	if err != nil {
		return nil, err
	}
	pull := func(n int) ([]*csi.Frame, error) {
		out := make([]*csi.Frame, 0, n)
		for i := 0; i < n; i++ {
			f, err := stream.Next()
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	recycle := func(frames []*csi.Frame) {
		for _, f := range frames {
			stream.Recycle(f)
		}
	}

	detCfg := core.DefaultConfig(s.Grid, cfg.Scheme, s.Env.RX.Offsets())
	cal, err := pull(cfg.CalibrationPackets)
	if err != nil {
		return nil, fmt.Errorf("calibration capture: %w", err)
	}
	profile, err := core.Calibrate(detCfg, cal)
	if err != nil {
		return nil, err
	}
	recycle(cal)
	frozen, err := core.NewDetector(detCfg, profile)
	if err != nil {
		return nil, err
	}
	adaptive, err := core.NewDetector(detCfg, profile)
	if err != nil {
		return nil, err
	}
	holdout, err := pull(cfg.CalibrationPackets)
	if err != nil {
		return nil, fmt.Errorf("holdout capture: %w", err)
	}
	null, err := frozen.SelfScores(holdout, cfg.WindowPackets, cfg.WindowPackets)
	if err != nil {
		return nil, err
	}
	recycle(holdout)
	if _, err := frozen.CalibrateThreshold(null, 0.95, 1.3); err != nil {
		return nil, err
	}
	if _, err := adaptive.CalibrateThreshold(null, 0.95, 1.3); err != nil {
		return nil, err
	}
	adapter, err := adapt.NewAdapter(cfg.Policy, adaptive, null)
	if err != nil {
		return nil, err
	}

	res := &DriftResult{
		Config:   cfg,
		Frozen:   DriftArm{Name: "frozen"},
		Adaptive: DriftArm{Name: "adaptive"},
	}
	sc := core.NewScratch()
	windows := cfg.MonitorMultiple * cfg.CalibrationPackets / cfg.WindowPackets
	for w := 0; w < windows; w++ {
		window, err := pull(cfg.WindowPackets)
		if err != nil {
			return nil, fmt.Errorf("monitor window %d: %w", w, err)
		}
		fDec, err := frozen.DetectScratch(window, sc)
		if err != nil {
			return nil, err
		}
		aDec, err := adaptive.DetectScratch(window, sc)
		if err != nil {
			return nil, err
		}
		if _, err := adapter.ObserveScored(sc, aDec); err != nil {
			return nil, err
		}
		recycle(window)
		res.Frozen.Windows++
		res.Adaptive.Windows++
		if fDec.Present {
			res.Frozen.FalsePositives++
		}
		if aDec.Present {
			res.Adaptive.FalsePositives++
		}
	}

	res.Adaptive.Health = adapter.Health()

	// Occupied tail: the person steps onto the link after the long drift.
	mid := s.LinkMidpoint()
	stream.SetBodies([]body.Body{body.Default(mid)})
	for w := 0; w < cfg.OccupiedTailWindows; w++ {
		window, err := pull(cfg.WindowPackets)
		if err != nil {
			return nil, fmt.Errorf("tail window %d: %w", w, err)
		}
		fDec, err := frozen.DetectScratch(window, sc)
		if err != nil {
			return nil, err
		}
		aDec, err := adaptive.DetectScratch(window, sc)
		if err != nil {
			return nil, err
		}
		// The adapter keeps observing during the tail: a detected window is
		// never folded into the profile (silent-window gate), which is
		// itself part of what the tail verifies.
		if _, err := adapter.ObserveScored(sc, aDec); err != nil {
			return nil, err
		}
		recycle(window)
		res.Frozen.TailWindows++
		res.Adaptive.TailWindows++
		if fDec.Present {
			res.Frozen.TailDetections++
		}
		if aDec.Present {
			res.Adaptive.TailDetections++
		}
	}

	if res.Frozen.Windows > 0 {
		res.Frozen.FPR = float64(res.Frozen.FalsePositives) / float64(res.Frozen.Windows)
		res.Adaptive.FPR = float64(res.Adaptive.FalsePositives) / float64(res.Adaptive.Windows)
	}
	res.Frozen.FinalThreshold = frozen.Threshold()
	res.Adaptive.FinalThreshold = adaptive.Threshold()
	res.Adaptive.TailHealth = adapter.Health()
	res.FinalDriftDB = stream.AppliedGainDB()
	return res, nil
}

// Render prints the comparison table.
func (r *DriftResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Drift adaptation — %s on case %d (%s), %d×%d-packet calibration horizon\n",
		r.Config.Preset.Kind, r.Config.Case, r.Config.Scheme,
		r.Config.MonitorMultiple, r.Config.CalibrationPackets)
	if r.FinalDriftDB != 0 {
		fmt.Fprintf(&b, "  accumulated gain walk at end of run: %.2f dB\n", r.FinalDriftDB)
	}
	fmt.Fprintf(&b, "  %-10s  %8s  %8s  %8s  %10s  %12s\n",
		"detector", "windows", "FP", "FPR", "tail det.", "threshold")
	for _, arm := range []DriftArm{r.Frozen, r.Adaptive} {
		fmt.Fprintf(&b, "  %-10s  %8d  %8d  %7.1f%%  %7d/%d  %12.4f\n",
			arm.Name, arm.Windows, arm.FalsePositives, 100*arm.FPR,
			arm.TailDetections, arm.TailWindows, arm.FinalThreshold)
	}
	h := r.Adaptive.Health
	fmt.Fprintf(&b, "  adaptive health after empty run: %s (drift z %.1f, profile shift %.2f dB, %d refreshes, %d threshold updates)\n",
		h.State, h.DriftZ, h.ProfileShiftDB, h.Refreshes, h.ThresholdUpdates)
	if r.Adaptive.TailWindows > 0 {
		fmt.Fprintf(&b, "  adaptive health after occupied tail: %s (needs recalibration: %v)\n",
			r.Adaptive.TailHealth.State, r.Adaptive.TailHealth.NeedsRecalibration)
	}
	return b.String()
}
