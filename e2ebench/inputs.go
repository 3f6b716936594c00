package main

import (
	"fmt"

	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

const (
	// windowSize is the paper's monitoring window (§IV-C: 25 packets).
	windowSize = 25
	// calPackets is the per-link calibration budget handed to
	// Engine.Calibrate: calPackets profile frames plus calPackets held-out
	// frames.
	calPackets = 100
	// hostL2Bytes is the per-core L2 of the reference host (Intel Xeon,
	// family 6 model 207, 2-vCPU KVM guest: 2 MiB L2 per core). It is a
	// recorded constant rather than a probe so the benchmark reads nothing
	// outside its checkout.
	hostL2Bytes = 2 << 20
)

// linkInput is one link's pre-generated input: calibration frames (always
// an empty room — the calibration stage is empty by definition), an empty
// lead-in played once, and a recorded monitoring segment of whole windows
// the sources loop over, rewriting sequence numbers and timestamps on every
// pass. Every window has a ground-truth occupancy label. The lead-in gives
// the adapter's drift monitor the history it needs to see a person's
// arrival as a step; without it a person present from the first window
// reads as a slow baseline walk and is absorbed.
type linkInput struct {
	id     string
	cfg    core.Config
	cal    []*csi.Frame
	lead   []*csi.Frame
	seg    []*csi.Frame
	labels []bool // per segment window: someone stands on the link
	// trans marks transition windows (the first window of a presence
	// change, looping and the end of the lead-in included), which
	// link_accuracy does not score.
	trans []bool
	rate  float64 // frames/s used to stamp timestamps
}

func (in *linkInput) leadWindows() int { return len(in.lead) / windowSize }
func (in *linkInput) segWindows() int  { return len(in.seg) / windowSize }

// frame returns monitoring frame m (m counts from the first frame after
// calibration).
func (in *linkInput) frame(m uint64) *csi.Frame {
	n := uint64(len(in.lead))
	if m < n {
		return in.lead[m]
	}
	return in.seg[(m-n)%uint64(len(in.seg))]
}

// window returns monitoring window w's frames.
func (in *linkInput) window(w int) []*csi.Frame {
	if w < in.leadWindows() {
		return in.lead[w*windowSize : (w+1)*windowSize]
	}
	i := (w - in.leadWindows()) % in.segWindows()
	return in.seg[i*windowSize : (i+1)*windowSize]
}

// label returns the ground truth of monitoring window w.
func (in *linkInput) label(w int) (occupied, transition bool) {
	lead := in.leadWindows()
	switch {
	case w < lead:
		return false, false
	case w == lead && lead > 0:
		return in.labels[0], in.labels[0]
	}
	i := (w - lead) % in.segWindows()
	return in.labels[i], in.trans[i]
}

// frameBytes is the in-memory CSI payload of one frame.
func frameBytes(f *csi.Frame) int {
	return 16*f.NumAntennas()*f.NumSubcarriers() + 8*len(f.RSSI)
}

// linkSpec says how to record one link.
type linkSpec struct {
	scheme core.Scheme
	// occupied reports whether a person stands on the link midpoint during
	// segment window w.
	occupied func(w int) bool
}

// generateLinks records every link of a workload from scenario.LinkCase,
// cycling through cases 1–5: lead empty windows, then segWindows windows
// labelled by the link's spec. Everything derives from seed.
func generateLinks(seed int64, n, lead, segWindows int, rate float64, spec func(i int) linkSpec) ([]*linkInput, error) {
	out := make([]*linkInput, n)
	for i := range out {
		sp := spec(i)
		s, err := scenario.LinkCase(i%scenario.NumLinkCases+1, seed*131+int64(i))
		if err != nil {
			return nil, err
		}
		// Calm receivers: the slow AGC gain walk is off. With it, whether a
		// seed's recording happens to hold a gain excursion decides how many
		// links quarantine or look like ambient drift, and so how much
		// adaptation work a window costs and whether the fleet coordinator
		// recalibrates mid-run; drift has its own experiments
		// (internal/experiments). White AGC jitter, noise, STO, phase and
		// quantization stay as LinkCase sets them.
		s.Imp.AGCDriftDB = 0
		x, err := s.NewExtractor(int64(i) + 1)
		if err != nil {
			return nil, err
		}
		person := []body.Body{body.Default(s.LinkMidpoint())}
		in := &linkInput{
			id:     fmt.Sprintf("l%d", i),
			cfg:    core.DefaultConfig(s.Grid, sp.scheme, s.Env.RX.Offsets()),
			cal:    x.CaptureN(2*calPackets, nil),
			lead:   x.CaptureN(lead*windowSize, nil),
			seg:    make([]*csi.Frame, 0, segWindows*windowSize),
			labels: make([]bool, segWindows),
			trans:  make([]bool, segWindows),
			rate:   rate,
		}
		for w := 0; w < segWindows; w++ {
			occ := sp.occupied(w)
			in.labels[w] = occ
			in.trans[w] = occ != sp.occupied((w+segWindows-1)%segWindows)
			var bodies []body.Body
			if occ {
				bodies = person
			}
			in.seg = append(in.seg, x.CaptureN(windowSize, bodies)...)
		}
		out[i] = in
	}
	return out, nil
}

// inputProps are the input properties a later optimisation may depend on.
type inputProps struct {
	Links         int     `json:"links"`
	Schemes       string  `json:"scheme_mix"`
	OccupiedShare float64 `json:"occupied_window_share"`
	Rate          string  `json:"per_link_rate"`
	SegmentBytes  int     `json:"segment_bytes"`
	SegmentVsL2   float64 `json:"segment_bytes_over_l2"`
}

func describeInputs(links []*linkInput, rate string) inputProps {
	p := inputProps{Links: len(links), Rate: rate}
	schemes := map[string]int{}
	var occ, wins int
	for _, in := range links {
		schemes[in.cfg.Scheme.String()]++
		for _, o := range in.labels {
			if o {
				occ++
			}
		}
		wins += len(in.labels)
		for _, f := range in.lead {
			p.SegmentBytes += frameBytes(f)
		}
		for _, f := range in.seg {
			p.SegmentBytes += frameBytes(f)
		}
	}
	for name, n := range schemes {
		if p.Schemes != "" {
			p.Schemes += ","
		}
		p.Schemes += fmt.Sprintf("%dx%s", n, name)
	}
	p.OccupiedShare = float64(occ) / float64(wins)
	p.SegmentVsL2 = float64(p.SegmentBytes) / hostL2Bytes
	return p
}

// stamp rewrites a frame's sequence number and timestamp for packet k of
// the link's stream.
func stamp(f *csi.Frame, k uint64, rate float64) {
	f.Seq = uint32(k)
	f.TimestampMicros = uint64(float64(k) / rate * 1e6)
}
