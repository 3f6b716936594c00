package main

import (
	"os"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/csinet"
	"mlink/internal/engine"
	"mlink/internal/fleet"
	"mlink/internal/linalg"
	"mlink/internal/music"
	"mlink/internal/sanitize"
	"mlink/internal/serve"
)

// stagePass re-executes one segment pass of every link's windows through
// the layers' public functions, timing each stage from outside: sanitize,
// μ, subcarrier weights, the whole score, the angular stages where the
// scheme has them, and the adapter's Observe. It calibrates its own
// detector and adapter per link exactly as the engine does, so the timed
// work is the work the engine performs per window. Results are per-window
// medians in µs, plus shares of the score time.
func stagePass(links []*linkInput, l map[string]float64) error {
	var sanUs, muUs, wUs, scoreUs, covUs, partUs, bartUs, obsUs, scoreObsUs []float64
	for _, in := range links {
		det, ad, err := calibrateLink(in)
		if err != nil {
			return err
		}
		cfg := in.cfg
		nSub := cfg.Grid.Len()
		var (
			sc, ssc = core.NewScratch(), core.NewScratch()
			san     sanitize.Scratch
			sw      core.SubcarrierWeights
			med     = make([]float64, nSub)
			mus     = make([][]float64, windowSize)
			wrows   [][]float64
			wavg    = make([]float64, nSub)
			parts   music.Partials
			cov     linalg.Matrix
			calCov  linalg.Matrix
			spec    music.Spectrum
			plan    *music.Plan
		)
		for i := range mus {
			mus[i] = make([]float64, nSub)
		}
		angular := cfg.Scheme == core.SchemeSubcarrierPath
		if angular {
			est, err := music.NewEstimator(cfg.ArrayOffsets, speedOfLight/cfg.Grid.Center)
			if err != nil {
				return err
			}
			est.StepDeg = cfg.SpectrumStepDeg
			if plan, err = est.NewPlan(); err != nil {
				return err
			}
		}
		for w := 0; w < in.leadWindows()+in.segWindows(); w++ {
			win := in.window(w)
			t0 := nowNs()
			if _, err := det.ScoreScratch(win, sc); err != nil {
				return err
			}
			t1 := nowNs()
			prep, err := san.Frames(win, cfg.Grid.Indices)
			if err != nil {
				return err
			}
			t2 := nowNs()
			var mu, wt int64
			wrows = wrows[:0]
			for ant := 0; ant < prep[0].NumAntennas(); ant++ {
				a := nowNs()
				for i, f := range prep {
					if err := ssc.MultipathFactorsInto(mus[i], f.CSI[ant], cfg.Grid); err != nil {
						return err
					}
				}
				b := nowNs()
				if err := core.ComputeSubcarrierWeightsInto(&sw, mus, med); err != nil {
					return err
				}
				c := nowNs()
				mu += b - a
				wt += c - b
				wrows = append(wrows, append([]float64(nil), sw.Weights...))
			}
			scoreUs = append(scoreUs, float64(t1-t0)/1e3)
			sanUs = append(sanUs, float64(t2-t1)/1e3)
			muUs = append(muUs, float64(mu)/1e3)
			wUs = append(wUs, float64(wt)/1e3)
			if angular {
				if err := core.AverageWeightVectorsInto(wavg, wrows); err != nil {
					return err
				}
				a := nowNs()
				if err := music.CovarianceInto(&cov, prep, wavg, &parts); err != nil {
					return err
				}
				b := nowNs()
				if err := det.Profile().Partials.CovarianceInto(&calCov, wavg); err != nil {
					return err
				}
				c := nowNs()
				if err := plan.BartlettInto(&spec, &cov); err != nil {
					return err
				}
				if err := plan.BartlettInto(&spec, &calCov); err != nil {
					return err
				}
				d := nowNs()
				covUs = append(covUs, float64(b-a)/1e3)
				partUs = append(partUs, float64(c-b)/1e3)
				bartUs = append(bartUs, float64(d-c)/1e3)
			}
			a := nowNs()
			dec, err := det.DetectScratch(win, sc)
			if err != nil {
				return err
			}
			b := nowNs()
			if _, err := ad.Observe(win, dec); err != nil {
				return err
			}
			c := nowNs()
			obsUs = append(obsUs, float64(c-b)/1e3)
			scoreObsUs = append(scoreObsUs, float64(c-a)/1e3)
		}
	}
	l["sanitize.frames_us"] = median(sanUs)
	l["core.mu_us"] = median(muUs)
	l["core.weights_us"] = median(wUs)
	l["core.score_us"] = median(scoreUs)
	l["music.covariance_us"] = median(covUs)
	l["music.partials_us"] = median(partUs)
	l["music.bartlett_us"] = median(bartUs)
	l["adapt.observe_us"] = median(obsUs)
	l["stage.score_observe_us"] = median(scoreObsUs)
	total := sum(scoreUs)
	l["core.sanitize_share"] = sum(sanUs) / total
	l["core.mu_share"] = sum(muUs) / total
	l["core.weights_share"] = sum(wUs) / total
	covered := sum(sanUs) + sum(muUs) + sum(wUs) + sum(covUs) + sum(partUs) + sum(bartUs)
	l["core.unattributed_share"] = 1 - covered/total
	return nil
}

// calibrateLink builds a link's detector and adapter from its calibration
// frames the way Engine.Calibrate does.
func calibrateLink(in *linkInput) (*core.Detector, *adapt.Adapter, error) {
	cal, hold := in.cal[:calPackets], in.cal[calPackets:]
	prof, err := core.Calibrate(in.cfg, cal)
	if err != nil {
		return nil, nil, err
	}
	det, err := core.NewDetector(in.cfg, prof)
	if err != nil {
		return nil, nil, err
	}
	null, err := det.SelfScores(hold, windowSize, windowSize)
	if err != nil {
		return nil, nil, err
	}
	if _, err := det.CalibrateThreshold(null, 0.95, 1.3); err != nil {
		return nil, nil, err
	}
	ad, err := adapt.NewAdapter(adapt.Policy{}, det, null)
	if err != nil {
		return nil, nil, err
	}
	return det, ad, nil
}

// netStagePass times the network-side layers the way stagePass times the
// scoring stack: csinet decoding per frame, journal syncs, and one hub
// encode per round of a real verdict.
func netStagePass(links []*linkInput, v *engine.SiteVerdict, dir string, l map[string]float64) error {
	var decUs []float64
	f := csi.NewFrame(links[0].seg[0].NumAntennas(), links[0].seg[0].NumSubcarriers())
	for _, fr := range links[0].seg {
		payload, err := csinet.EncodeFrame(fr)
		if err != nil {
			return err
		}
		t0 := nowNs()
		if err := csinet.DecodeFrameInto(f, payload); err != nil {
			return err
		}
		decUs = append(decUs, float64(nowNs()-t0)/1e3)
	}
	l["csinet.decode_us"] = median(decUs)

	// Journal.Sync after one round of deltas, repeatedly: the appends hand
	// a buffer to the syncer, and Sync writes and fsyncs it.
	jdir, err := os.MkdirTemp(dir, "stage-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	j, err := fleet.OpenJournal(jdir, fleet.JournalConfig{})
	if err != nil {
		return err
	}
	_, ad, err := calibrateLink(links[0])
	if err != nil {
		j.Close()
		return err
	}
	jw := j.NewWriter()
	var rec []byte
	var syncMs []float64
	for r := 0; r < 20; r++ {
		for _, in := range links {
			rec = ad.AppendDelta(rec[:0])
			jw.AppendDelta(in.id, rec)
		}
		t0 := nowNs()
		if err := j.Sync(); err != nil {
			j.Close()
			return err
		}
		syncMs = append(syncMs, float64(nowNs()-t0)/1e6)
	}
	if err := j.Close(); err != nil {
		return err
	}
	l["fleet.journal_sync_ms"] = median(syncMs)

	// Hub encode: PublishRound of the run's last verdict to one subscriber.
	hub := serve.NewHub(staticVerdict{v}, serve.HubOptions{})
	defer hub.Close()
	sub, err := hub.Subscribe()
	if err != nil {
		return err
	}
	var encUs []float64
	for r := 0; r < 200; r++ {
		t0 := nowNs()
		if err := hub.PublishRound(); err != nil {
			return err
		}
		encUs = append(encUs, float64(nowNs()-t0)/1e3)
		if fr := sub.TryNext(); fr != nil {
			fr.Release()
		}
	}
	l["serve.encode_us"] = median(encUs)
	return nil
}

// staticVerdict serves one recorded verdict.
type staticVerdict struct{ v *engine.SiteVerdict }

func (s staticVerdict) VerdictInto(dst *engine.SiteVerdict) error {
	links := append(dst.Links[:0], s.v.Links...)
	*dst = *s.v
	dst.Links = links
	return nil
}

const (
	speedOfLight = 299792458.0
	// benchDir is the checkout-local directory for build output, spans and
	// temporary journals; .gitignore lists it.
	benchDir = ".bench_build"
)
