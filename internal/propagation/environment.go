package propagation

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"mlink/internal/body"
	"mlink/internal/geom"
)

// LinkParams are the large-scale link-budget constants of Eq. 9.
type LinkParams struct {
	// TxPower is Pt in linear units (1.0 ≡ 0 dB reference).
	TxPower float64
	// TxGain and RxGain are the antenna gains Gt, Gr (linear, 1.0 for
	// the omnidirectional antennas the paper uses).
	TxGain, RxGain float64
}

// DefaultLinkParams matches the paper's omnidirectional setup.
func DefaultLinkParams() LinkParams {
	return LinkParams{TxPower: 1, TxGain: 1, RxGain: 1}
}

// Array is a uniform linear antenna array in the room plane.
type Array struct {
	// Center of the array.
	Center geom.Point
	// Broadside is the facing direction in radians; arrival angles are
	// measured relative to it (0 = head-on, ±π/2 = endfire).
	Broadside float64
	// Elements are the antenna positions, ordered along the array axis.
	Elements []geom.Point
	// Spacing is the inter-element distance in metres.
	Spacing float64
}

// NewULA builds an n-element uniform linear array centred at center, facing
// broadside, with the given element spacing (λ/2 for unambiguous MUSIC).
func NewULA(center geom.Point, broadside float64, n int, spacing float64) (Array, error) {
	if n < 1 {
		return Array{}, fmt.Errorf("ula with %d elements: %w", n, ErrBadGeometry)
	}
	if spacing <= 0 {
		return Array{}, fmt.Errorf("ula spacing %v: %w", spacing, ErrBadGeometry)
	}
	axis := geom.Point{X: math.Cos(broadside + math.Pi/2), Y: math.Sin(broadside + math.Pi/2)}
	elems := make([]geom.Point, n)
	for m := 0; m < n; m++ {
		off := (float64(m) - float64(n-1)/2) * spacing
		elems[m] = center.Add(axis.Scale(off))
	}
	return Array{Center: center, Broadside: broadside, Elements: elems, Spacing: spacing}, nil
}

// Offsets returns the element positions projected on the array axis,
// relative to the center (the scalar offsets MUSIC steering vectors need).
func (a Array) Offsets() []float64 {
	axis := geom.Point{X: math.Cos(a.Broadside + math.Pi/2), Y: math.Sin(a.Broadside + math.Pi/2)}
	out := make([]float64, len(a.Elements))
	for i, e := range a.Elements {
		out[i] = e.Sub(a.Center).Dot(axis)
	}
	return out
}

// RelativeAngle converts an absolute arrival direction (the direction from
// the array towards the source of the last ray leg) into the angle relative
// to broadside, wrapped to (-π, π].
func (a Array) RelativeAngle(absolute float64) float64 {
	d := absolute - a.Broadside
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// Environment is a complete static link: a room, a single-antenna
// transmitter and a receive array. Static rays (LOS + wall bounces) are
// traced once at construction; per-packet human effects are applied in
// Response.
type Environment struct {
	Room   *Room
	TX     geom.Point
	RX     Array
	Params LinkParams

	staticRays [][]Ray      // per receive element
	rayConsts  [][]rayConst // per-ray frequency-independent constants
	// cache holds the per-grid phasor tables; PrepareGrid builds them under
	// prepMu and publishes them whole, ResponseInto loads them lock-free.
	cache  atomic.Pointer[gridCache]
	prepMu sync.Mutex
}

// NewEnvironment validates the geometry and eagerly traces the static rays
// for every receive element.
func NewEnvironment(room *Room, tx geom.Point, rx Array, params LinkParams, maxBounces int) (*Environment, error) {
	if room == nil {
		return nil, fmt.Errorf("nil room: %w", ErrBadGeometry)
	}
	if len(rx.Elements) == 0 {
		return nil, fmt.Errorf("empty rx array: %w", ErrBadGeometry)
	}
	tracer := Tracer{Room: room, MaxBounces: maxBounces}
	static := make([][]Ray, len(rx.Elements))
	for i, e := range rx.Elements {
		rays, err := tracer.Trace(tx, e)
		if err != nil {
			return nil, fmt.Errorf("trace element %d: %w", i, err)
		}
		if len(rays) == 0 {
			return nil, fmt.Errorf("element %d unreachable from tx: %w", i, ErrBadGeometry)
		}
		static[i] = rays
	}
	env := &Environment{Room: room, TX: tx, RX: rx, Params: params, staticRays: static}
	env.buildRayConsts()
	return env, nil
}

// StaticRays returns the environment-only rays (LOS + wall bounces) for a
// receive element. The slice is shared; callers must not modify it.
func (e *Environment) StaticRays(rxIdx int) []Ray {
	return e.staticRays[rxIdx]
}

// spreadingAmplitude returns the geometric spreading factor of a ray at
// frequency f per Eq. 9 (amplitude form): √(PtGtGr)·c/((4πd)^{n/2}·f) for
// end-to-end rays, and the bistatic radar form √(PtGtGr)·c/(f·4π·(d1·d2)^{n/2})
// for human echoes.
func (e *Environment) spreadingAmplitude(r Ray, f float64) float64 {
	n := e.Room.PathLossExponent
	pre := math.Sqrt(e.Params.TxPower * e.Params.TxGain * e.Params.RxGain)
	if r.Bistatic {
		segs := r.Points.Segments()
		if len(segs) != 2 {
			return 0
		}
		d1 := segs[0].Length()
		d2 := segs[1].Length()
		if d1 <= 0 || d2 <= 0 {
			return 0
		}
		return pre * SpeedOfLight / (f * 4 * math.Pi * math.Pow(d1*d2, n/2))
	}
	d := r.Length()
	if d <= 0 {
		return 0
	}
	return pre * SpeedOfLight / (math.Pow(4*math.Pi*d, n/2) * f)
}

// rayContribution evaluates one ray's complex contribution to H(f),
// including shadowing from every body except the echo source itself.
func (e *Environment) rayContribution(r Ray, f float64, bodies []body.Body, echoSource int) complex128 {
	amp := e.spreadingAmplitude(r, f) * r.Gain
	if amp == 0 {
		return 0
	}
	lambda := SpeedOfLight / f
	for bi := range bodies {
		if bi == echoSource {
			continue
		}
		amp *= bodies[bi].ShadowGain(r.Points, lambda)
	}
	phase := -2 * math.Pi * f * r.Length() / SpeedOfLight
	if r.PhaseFlips%2 == 1 {
		amp = -amp
	}
	return complex(amp, 0) * cmplx.Exp(complex(0, phase))
}

// echoRay synthesizes the human-created single-bounce ray TX→body→element.
func (e *Environment) echoRay(b body.Body, rxIdx int) Ray {
	return Ray{
		Points:     geom.Polyline{e.TX, b.Position, e.RX.Elements[rxIdx]},
		Gain:       b.EchoAmplitudeScale(),
		PhaseFlips: 1,
		Kind:       KindHumanEcho,
		Bistatic:   true,
	}
}

// ResponseAt computes the complex channel frequency response H(f) at one
// receive element with the given bodies present. Bodies shadow every ray
// they approach and each contributes a bistatic echo ray.
func (e *Environment) ResponseAt(f float64, rxIdx int, bodies []body.Body) complex128 {
	var h complex128
	for _, r := range e.staticRays[rxIdx] {
		h += e.rayContribution(r, f, bodies, -1)
	}
	for bi, b := range bodies {
		if b.RCS <= 0 {
			continue
		}
		h += e.rayContribution(e.echoRay(b, rxIdx), f, bodies, bi)
	}
	return h
}

// Response evaluates H over a frequency grid for every receive element,
// returning [element][freq].
func (e *Environment) Response(freqs []float64, bodies []body.Body) [][]complex128 {
	out := make([][]complex128, len(e.RX.Elements))
	for i := range e.RX.Elements {
		row := make([]complex128, len(freqs))
		for k, f := range freqs {
			row[k] = e.ResponseAt(f, i, bodies)
		}
		out[i] = row
	}
	return out
}

// OracleLOS returns the true LOS-path power and total power at one element
// and frequency — ground truth unavailable on real hardware, used by the
// ablation benches to grade the Eq. 10 dominant-tap approximation.
func (e *Environment) OracleLOS(f float64, rxIdx int, bodies []body.Body) (losPower, totalPower float64) {
	var losC, total complex128
	for _, r := range e.staticRays[rxIdx] {
		c := e.rayContribution(r, f, bodies, -1)
		total += c
		if r.Kind == KindLOS {
			losC += c
		}
	}
	for bi, b := range bodies {
		if b.RCS <= 0 {
			continue
		}
		total += e.rayContribution(e.echoRay(b, rxIdx), f, bodies, bi)
	}
	re, im := real(losC), imag(losC)
	losPower = re*re + im*im
	re, im = real(total), imag(total)
	totalPower = re*re + im*im
	return losPower, totalPower
}

// TrueAoAs returns the arrival angles (relative to the array broadside, in
// radians) and amplitudes at frequency f of the static rays at the array
// center — the ground truth for MUSIC accuracy experiments (Fig. 10).
func (e *Environment) TrueAoAs(f float64) (angles, amps []float64) {
	center := len(e.RX.Elements) / 2
	for _, r := range e.staticRays[center] {
		angles = append(angles, e.RX.RelativeAngle(r.AoA()+math.Pi)) // AoA leg points towards RX; invert to point at source
		amps = append(amps, e.spreadingAmplitude(r, f)*r.Gain)
	}
	return angles, amps
}
