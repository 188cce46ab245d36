package stats

import (
	"math"
	"testing"
)

// gofAlpha is the goodness-of-fit tolerance: a shape fails when its
// chi-square p-value falls below it. It is fixed before any run and is
// never widened to make a sampler pass; with four shapes a correct
// sampler fails by chance with probability about 4e-6.
const gofAlpha = 1e-6

// gofShapes are the shapes the fit is checked at: cluster-day's table
// size at the three trace hotness exponents, and a small hot table.
var gofShapes = []struct {
	n    int
	s    float64
	seed uint64
}{
	{125_000, 0.40, 11},
	{125_000, 0.893, 12},
	{125_000, 1.326, 13},
	{1_000, 1.05, 14},
}

// TestZipfGoodnessOfFit is an oracle from outside the sampler: a
// chi-square test of SampleWith against the exact truncated pmf
// p(k) = k^-s / sum_{j<=n} j^-s. The top 1,000 ranks get a bin each; the
// tail is cut into log-spaced bins of expected count at least 5.
func TestZipfGoodnessOfFit(t *testing.T) {
	const draws = 1_000_000
	for _, sh := range gofShapes {
		pmf := zipfPMF(sh.n, sh.s)
		edges := gofBins(pmf, draws)
		counts := make([]int, sh.n)
		z := NewSharedZipf(sh.n, sh.s)
		rng := SeededRNG(sh.seed)
		for i := 0; i < draws; i++ {
			counts[z.SampleWith(&rng)]++
		}
		stat := 0.0
		for b := 0; b+1 < len(edges); b++ {
			obs, exp := 0, 0.0
			for k := edges[b]; k < edges[b+1]; k++ {
				obs += counts[k]
				exp += pmf[k] * draws
			}
			d := float64(obs) - exp
			stat += d * d / exp
		}
		df := len(edges) - 2
		p := chiSquareSurvival(stat, df)
		t.Logf("n=%d s=%g: chi2=%.1f df=%d p=%.3g", sh.n, sh.s, stat, df, p)
		if p < gofAlpha {
			t.Errorf("n=%d s=%g: chi-square %.1f on %d df, p=%.3g < %g", sh.n, sh.s, stat, df, p, gofAlpha)
		}
	}
}

// zipfPMF returns the exact truncated Zipf pmf over ranks [0, n).
func zipfPMF(n int, s float64) []float64 {
	pmf := make([]float64, n)
	sum := 0.0
	// Sum from the smallest term up to keep the normaliser accurate.
	for k := n; k >= 1; k-- {
		pmf[k-1] = math.Pow(float64(k), -s)
		sum += pmf[k-1]
	}
	for i := range pmf {
		pmf[i] /= sum
	}
	return pmf
}

// gofBins returns bin edges over [0, len(pmf)): one bin per rank for
// the top 1,000 ranks, then bins at least 5% wider than the last that
// also reach an expected count of 5; a short remainder joins the last
// tail bin.
func gofBins(pmf []float64, draws float64) []int {
	const top = 1000
	n := len(pmf)
	var edges []int
	for k := 0; k < top && k < n; k++ {
		edges = append(edges, k)
	}
	lo := len(edges)
	for lo < n {
		hi, exp := lo, 0.0
		for hi < n && (exp < 5 || float64(hi) < 1.05*float64(lo)) {
			exp += pmf[hi] * draws
			hi++
		}
		if exp < 5 && len(edges) > top {
			break // the remainder joins the previous bin
		}
		edges = append(edges, lo)
		lo = hi
	}
	return append(edges, n)
}

// chiSquareSurvival returns P(X >= x) for X chi-square with df degrees of
// freedom: the regularized upper incomplete gamma Q(df/2, x/2).
func chiSquareSurvival(x float64, df int) float64 {
	return gammaQ(float64(df)/2, x/2)
}

// gammaQ is the regularized upper incomplete gamma function, by series
// below a+1 and by Lentz's continued fraction above (Numerical Recipes
// §6.2).
func gammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	front := math.Exp(-x + a*math.Log(x) - lg)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for n := 1; n < 10_000; n++ {
			term *= x / (a + float64(n))
			sum += term
			if math.Abs(term) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return 1 - sum*front
	}
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 10_000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return front * h
}

// TestChiSquareSurvival pins the p-value code to known quantiles.
func TestChiSquareSurvival(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841458820694124, 1, 0.05},
		{18.307038053275146, 10, 0.05},
		{1.0, 2, math.Exp(-0.5)},
		{1106.97, 1000, 0.01}, // upper 1% point of chi-square(1000), to 4 digits
	} {
		got := chiSquareSurvival(tc.x, tc.df)
		if math.Abs(got-tc.want) > 1e-2*tc.want {
			t.Errorf("survival(%g, %d) = %.6g, want %.6g", tc.x, tc.df, got, tc.want)
		}
	}
}
