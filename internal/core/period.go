// Package core implements the paper's contribution: the measurement-based
// methodology that derives the round-robin upper-bound delay ubd from the
// saw-tooth period of rsk-nop slowdowns (§4), without knowing any bus
// latency. It consumes only what a real COTS board offers — execution
// times, a PMC request count and the bus-utilization PMCs — as recorded
// rows; the sweeps that produce them run as plans through a store
// Session.
package core

import (
	"math"
	"slices"

	"rrbus/internal/stats"
)

// PeriodMethod names one period-detection strategy.
type PeriodMethod string

const (
	// MethodExact is the literal Eq. 3: the smallest shift P under which
	// the slowdown series repeats within tolerance.
	MethodExact PeriodMethod = "exact"
	// MethodAutocorr finds the first local maximum of the normalized
	// autocorrelation.
	MethodAutocorr PeriodMethod = "autocorr"
	// MethodPeaks measures the median spacing between slowdown peaks.
	MethodPeaks PeriodMethod = "peaks"
	// MethodModelFit fits Eq. 2 directly over candidate ubd values; it is
	// the only method immune to δnop > 1 aliasing.
	MethodModelFit PeriodMethod = "modelfit"
)

// ExactPeriod implements Eq. 3 on a slowdown series d (index i ↔ k=kmin+i):
// it returns the smallest period P such that |d[i]-d[i+P]| stays within tol
// times the series amplitude for every overlapping i. It returns 0 when no
// period qualifies.
//
// A structural precondition guards against reading a period into a partial
// first tooth: the saw-tooth only reveals its period at a wrap-around, so
// the series must contain at least one significant rise. Without this, a
// long monotone ramp (large ubd, sweep still inside the first period) would
// sneak under the tolerance at P = 1, because its per-step change is a
// vanishing fraction of the amplitude.
func ExactPeriod(d []float64, tol float64) int {
	n := len(d)
	if n < 4 {
		return 0
	}
	lo, hi := stats.MinMax(d)
	amp := hi - lo
	if amp == 0 {
		return 0 // constant series: no saw-tooth, no period
	}
	lim := tol * amp
	rises := false
	for i := 0; i+1 < n; i++ {
		if d[i+1]-d[i] > lim {
			rises = true
			break
		}
	}
	if !rises {
		return 0 // still descending the first tooth: period unobservable
	}
	for p := 1; p <= n/2; p++ {
		ok := true
		for i := 0; i+p < n; i++ {
			if math.Abs(d[i]-d[i+p]) > lim {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return 0
}

// AutocorrPeriod returns the lag of the first local maximum of the
// normalized autocorrelation with correlation at least minCorr, or 0.
func AutocorrPeriod(d []float64, minCorr float64) int {
	n := len(d)
	if n < 6 {
		return 0
	}
	maxLag := n / 2
	ac := make([]float64, maxLag+1)
	for lag := 1; lag <= maxLag; lag++ {
		ac[lag] = stats.Autocorr(d, lag)
	}
	for lag := 2; lag < maxLag; lag++ {
		if ac[lag] >= minCorr && ac[lag] > ac[lag-1] && ac[lag] >= ac[lag+1] {
			return lag
		}
	}
	// Monotone rise up to the edge: the first period may sit exactly at
	// maxLag.
	if maxLag >= 2 && ac[maxLag] >= minCorr && ac[maxLag] > ac[maxLag-1] {
		return maxLag
	}
	return 0
}

// PeakPeriod returns the median spacing between local maxima of the series,
// or 0 when fewer than two peaks exist.
func PeakPeriod(d []float64) int {
	peaks := stats.LocalMaxima(d)
	if len(peaks) < 2 {
		return 0
	}
	return stats.MedianInt(stats.Diffs(peaks))
}

// ModelFitUBD fits the analytic synchrony model of Eq. 2 to the slowdown
// series: slowdown(k) is proportional to γ(δ0 + k*δnop) up to an affine
// transform, with δ0 (the kernel's intrinsic injection time) unknown. It
// scans ubd ∈ [2, maxUBD] and δ0 ∈ [0, ubd) and scores each pair by the
// per-sample squared distance between the z-scored series and the
// z-scored prediction, which equals 2(1 − r) for their Pearson
// correlation r. It returns the ubd with the lowest residual, and that
// residual; when several ubd come within 1e-9 of the lowest, the smallest
// of them wins. deltaNop is rounded to the nearest integer cycle. A
// negative kmin fits nothing: γ of a negative injection time is
// undefined. Unlike the period-based methods this resolves
// δnop > 1 aliasing: the sampled saw-tooth values themselves, not just
// their repetition distance, must match.
//
// The fit costs O(maxUBD·(n + maxUBD)) time for n samples and a constant
// number of allocations. For one ubd, the samples fall into residue
// classes c = (k*δnop) mod ubd, and every member of a class shares one
// prediction. Each step of δ0 lowers every prediction by one, except in
// the class whose γ wraps from 0 to ubd−1, so the sums behind r follow in
// O(1) per step from per-class counts and observation sums.
func ModelFitUBD(d []float64, kmin int, deltaNop float64, maxUBD int) (ubd int, residual float64) {
	n := len(d)
	dn := int(math.Round(deltaNop))
	if dn < 1 {
		dn = 1
	}
	// A candidate is only identifiable when the sweep spans at least two
	// of its periods in δ-space (n*dn cycles): otherwise a partial
	// descending ramp fits every larger ubd equally well (ill-posed).
	if cap := n * dn / 2; maxUBD > cap {
		maxUBD = cap
	}
	if n < 6 || maxUBD < 2 || kmin < 0 {
		return 0, math.Inf(1)
	}
	mean, std := stats.Mean(d), stats.Std(d)
	if std == 0 {
		return 0, math.Inf(1)
	}

	obs := make([]float64, n)
	var sz, szz float64
	for i, x := range d {
		z := (x - mean) / std
		obs[i] = z
		sz += z
		szz += z * z
	}
	nf := float64(n)
	zvar := szz - sz*sz/nf // Σ(z − z̄)²
	classes := make([]residueClass, maxUBD)
	bests := make([]float64, maxUBD-1) // bests[cand-2]: the lowest residual over δ0
	// score turns the prediction sums Σp, Σp², Σz·p into the residual,
	// skipping a constant prediction (exactly when n·Σp² = (Σp)²).
	n64 := int64(n)
	score := func(sp, spp int64, szp float64) (float64, bool) {
		vp := n64*spp - sp*sp // n·Σ(p − p̄)², exact
		if vp == 0 {
			return 0, false
		}
		r := (szp - float64(sp)*sz/nf) / math.Sqrt(zvar*float64(vp)/nf)
		return math.Max(0, 2*(1-r)), true
	}

	for cand := 2; cand <= maxUBD; cand++ {
		cls := classes[:cand]
		clear(cls)
		c, step := kmin*dn%cand, dn%cand
		for _, z := range obs {
			cls[c].count++
			cls[c].zsum += z
			if c += step; c >= cand {
				c -= cand
			}
		}
		// δ0 = 0: class c predicts γ(c) = cand − c, and class 0 predicts 0.
		u := int64(cand)
		var sp, spp int64
		var szp float64
		for c := 1; c < cand; c++ {
			g := u - int64(c)
			sp += cls[c].count * g
			spp += cls[c].count * g * g
			szp += cls[c].zsum * float64(g)
		}
		best := math.Inf(1)
		for d0 := 0; d0 < cand; d0++ {
			res, ok := score(sp, spp, szp)
			if d0 == 0 && kmin == 0 {
				// γ(0) = ubd: the one sample at δ = 0 predicts cand,
				// not the 0 its residue class does.
				res, ok = score(sp+u, spp+u*u, szp+obs[0]*float64(u))
			}
			if ok && res < best {
				best = res
			}
			// Step to δ0+1: the class at γ = 0 wraps to cand−1, every
			// other prediction drops by one.
			w := &cls[(cand-d0)%cand]
			spp += w.count*(u-1)*(u-1) + (n64 - w.count) - 2*sp
			sp += w.count*u - n64
			szp += w.zsum*float64(u) - sz
		}
		bests[cand-2] = best
	}

	lowest := slices.Min(bests)
	if math.IsInf(lowest, 1) {
		return 0, lowest // every prediction was constant
	}
	i := slices.IndexFunc(bests, func(r float64) bool { return r <= lowest+1e-9 })
	return i + 2, bests[i]
}

// residueClass accumulates the samples of one residue class: how many
// there are and the sum of their z-scored observations.
type residueClass struct {
	count int64
	zsum  float64
}
