// Package adapt closes the loop the paper's title promises: it turns the
// characterized, calibrate-once detector of internal/core into an adaptive
// one that survives environment non-stationarity (§VI "adaptation";
// RASID-style profile updating, Kosba et al.).
//
// The per-link Adapter observes every scored monitoring window and applies
// three policies:
//
//   - Silent-window profile refresh: windows that score well below the
//     decision threshold are confidently empty; their statistics are folded
//     into the link's core.LinkProfile by EWMA, so slow baseline walks
//     (receiver gain drift, temperature) are tracked instead of accumulating
//     into false positives.
//   - Threshold re-derivation: silent-window scores feed a rolling null
//     distribution, and the decision threshold is re-derived from its
//     quantile at a fixed cadence — the threshold follows the profile.
//   - Drift quarantine: a windowed score-statistics test
//     (core.DriftMonitor) standardizes the rolling score mean against the
//     calibration-time null statistics. Past the warn bound the link is
//     flagged Drifting; past the critical bound adaptation has lost the
//     baseline (step change, dead link) and the link is Quarantined with
//     NeedsRecalibration set, which the engine layer surfaces and can act
//     on via Recalibrate.
//
// Health snapshots drive the engine's quality-weighted fusion — a drifting
// or quarantined link's vote is discounted so it cannot outvote healthy
// links — and carry the structured drift evidence (signed rolling and
// per-score z, the step-vs-walk jump discriminator, the profile-walk trend)
// that the fleet coordination layer correlates across links to tell a
// person (few links perturbed) from ambient drift (many links moving
// together).
//
// The fleet layer drives two controls, both safe from any goroutine and
// consumed by the observer: SetRefreshSuppressed holds refreshes while a
// localized perturbation (likely a person) must not be absorbed, and
// RequestRelock adopts the next window wholesale as the new baseline —
// clearing the quarantine — once correlated evidence shows the shift was
// environmental.
//
// AppendBinary/Restore serialize the adapter's full resumable state
// (walked fingerprints, threshold, rolling windows) as a versioned binary
// snapshot, so a restarted daemon resumes from the adapted baseline instead
// of recalibrating; see fleet.Store.
//
// A caller that scored the window on its own core.Scratch hands that
// scratch to ObserveScored: a refresh then measures the frames the score
// already sanitized instead of sanitizing the window again. Observe takes
// the raw window and prepares it on the adapter's own scratch; both give
// bit-identical results.
//
// Observe is single-writer: exactly one goroutine — the link's owning
// engine shard — observes a given adapter, and profile swaps are
// copy-on-write through core.Detector.SetProfile. Health may be read from
// any goroutine; snapshots publish through an atomic seqlock and never
// block the observer.
package adapt
