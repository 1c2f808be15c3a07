// Package channel provides the statistical MIMO channel models used by
// the simulation-based parts of the evaluation (§5.2.1, §5.3.2):
// i.i.d. Rayleigh fading with per-frame realizations, optional
// Kronecker spatial correlation, and complex AWGN with the paper's SNR
// conventions.
//
// SNR convention: transmit symbols have unit average energy per
// stream, channel entries are CN(0,1), so the average received SNR per
// stream at one antenna is 1/σ² where σ² is the total complex noise
// variance. SNRdB therefore maps to σ² = 10^(−SNRdB/10).
package channel

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
	"repro/internal/rng"
	"repro/internal/units"
)

// NoiseVar converts a per-stream average SNR to the total complex
// noise variance σ² = 10^(−SNRdB/10) under the package's conventions.
func NoiseVar(snr units.DB) units.Linear {
	return (-snr).Lin()
}

// SNRForNoiseVar is the inverse of NoiseVar.
func SNRForNoiseVar(noiseVar units.Linear) units.DB {
	return -units.LinToDB(noiseVar)
}

// NoiseVarForSNRdB is NoiseVar over bare float64s, kept for callers
// (hot paths, tests) that carry the variance straight into phasor
// arithmetic. Bit-identical to NoiseVar by construction.
func NoiseVarForSNRdB(snrdB float64) float64 {
	return float64(NoiseVar(units.DB(snrdB)))
}

// SNRdBForNoiseVar is the inverse of NoiseVarForSNRdB.
func SNRdBForNoiseVar(noiseVar float64) float64 {
	return float64(SNRForNoiseVar(units.Linear(noiseVar)))
}

// Rayleigh draws an na×nc channel with independent CN(0,1) entries,
// the i.i.d. Rayleigh-fading model sampled per frame in §5.3.2.
func Rayleigh(src *rng.Source, na, nc int) *cmplxmat.Matrix {
	h := cmplxmat.New(na, nc)
	RayleighInto(src, h)
	return h
}

// RayleighInto redraws every entry of h as an independent CN(0,1)
// sample, in row-major order: the same draws Rayleigh makes for a
// matrix of h's shape, so a caller that lays its matrices out in one
// backing array gets bitwise the channels Rayleigh would return.
func RayleighInto(src *rng.Source, h *cmplxmat.Matrix) {
	for i := range h.Data {
		h.Data[i] = src.CN(1)
	}
}

// Correlated draws a Kronecker-correlated channel R_r^{1/2}·G·R_t^{1/2}
// where G is i.i.d. Rayleigh and the correlation roots are formed from
// exponential correlation matrices with coefficients rhoRx and rhoTx.
// rho = 0 reduces to i.i.d. Rayleigh; rho → 1 yields nearly
// rank-deficient (poorly conditioned) channels.
func Correlated(src *rng.Source, na, nc int, rhoRx, rhoTx float64) (*cmplxmat.Matrix, error) {
	if rhoRx < 0 || rhoRx >= 1 || rhoTx < 0 || rhoTx >= 1 {
		return nil, fmt.Errorf("channel: correlation coefficients must lie in [0,1), got %g, %g", rhoRx, rhoTx)
	}
	g := Rayleigh(src, na, nc)
	rr := expCorrRoot(na, rhoRx)
	rt := expCorrRoot(nc, rhoTx)
	return cmplxmat.Mul(cmplxmat.Mul(rr, g), rt), nil
}

// expCorrRoot returns the principal square root of the exponential
// correlation matrix R[i][j] = rho^|i−j|, computed via its (real,
// symmetric) eigendecomposition.
func expCorrRoot(n int, rho float64) *cmplxmat.Matrix {
	r := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Set(i, j, complex(math.Pow(rho, math.Abs(float64(i-j))), 0))
		}
	}
	return hermitianSqrt(r)
}

// hermitianSqrt computes the principal square root of a Hermitian
// positive semi-definite matrix via Denman-Beavers iteration, which
// only needs inverses and keeps the implementation self-contained.
func hermitianSqrt(a *cmplxmat.Matrix) *cmplxmat.Matrix {
	n := a.Rows
	y := a.Clone()
	z := cmplxmat.Identity(n)
	for iter := 0; iter < 60; iter++ {
		yi, err := y.Inverse()
		if err != nil {
			break
		}
		zi, err := z.Inverse()
		if err != nil {
			break
		}
		ny := cmplxmat.Scale(0.5, cmplxmat.Add(y, zi))
		nz := cmplxmat.Scale(0.5, cmplxmat.Add(z, yi))
		if cmplxmat.MaxAbsDiff(y, ny) < 1e-13 {
			y = ny
			break
		}
		y, z = ny, nz
	}
	return y
}

// Conditioned draws a random channel with the exact squared condition
// number κ² = 10^(kappa2dB/10): random unitary factors come from the
// QR of i.i.d. Gaussian draws (Haar-distributed up to column phases),
// the singular values form a geometric ladder spanning the requested
// dynamic range, and the result is scaled so ‖H‖²F matches the na·nc
// an i.i.d. Rayleigh draw has in expectation. It is the κ²-sweep
// source for the condition-adaptive detector benchmarks and tests:
// unlike Correlated, whose conditioning is only statistical, every
// draw lands exactly on the requested κ².
func Conditioned(src *rng.Source, na, nc int, kappa2 units.DB) (*cmplxmat.Matrix, error) {
	if nc <= 0 || na < nc {
		return nil, fmt.Errorf("channel: conditioned channel needs na >= nc >= 1, got %d×%d", na, nc)
	}
	if kappa2 < 0 {
		return nil, fmt.Errorf("channel: condition number must be >= 0 dB, got %g", float64(kappa2))
	}
	kappa2dB := float64(kappa2)
	u := cmplxmat.QRDecompose(Rayleigh(src, na, nc)).Q
	v := cmplxmat.QRDecompose(Rayleigh(src, nc, nc)).Q
	// Geometric singular-value ladder: σ_0 = 1 down to
	// σ_{nc-1} = 10^(-kappa2dB/20), so σ_max²/σ_min² is exactly the
	// requested κ².
	sv := make([]float64, nc)
	var sum2 float64
	for l := range sv {
		exp := 0.0
		if nc > 1 {
			exp = -kappa2dB / 20 * float64(l) / float64(nc-1)
		}
		sv[l] = math.Pow(10, exp)
		sum2 += sv[l] * sv[l]
	}
	// Scale Σσ² to na·nc, the E‖H‖²F of an i.i.d. Rayleigh draw, so a
	// κ² sweep varies conditioning without varying receive power.
	gain := math.Sqrt(float64(na*nc) / sum2)
	vh := v.ConjT()
	for l := 0; l < nc; l++ {
		row := vh.Row(l)
		s := complex(gain*sv[l], 0)
		for j := range row {
			row[j] *= s
		}
	}
	return cmplxmat.Mul(u, vh), nil
}

// Transmit applies y = H·x + w with CN(0, noiseVar) noise per receive
// antenna, writing into dst (allocated when nil).
func Transmit(dst []complex128, src *rng.Source, h *cmplxmat.Matrix, x []complex128, noiseVar float64) []complex128 {
	dst = h.MulVec(dst, x)
	for i := range dst {
		dst[i] += src.CN(noiseVar)
	}
	return dst
}
