package stats

import (
	"fmt"
	"testing"
)

func TestZipfRange(t *testing.T) {
	rng := NewRNG(1)
	z := NewZipf(rng, 1000, 1.1)
	for i := 0; i < 50000; i++ {
		v := z.Sample()
		if v < 0 || v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func TestZipfRankZeroHottest(t *testing.T) {
	rng := NewRNG(2)
	z := NewZipf(rng, 10000, 1.2)
	counts := make([]int, 10000)
	for i := 0; i < 200000; i++ {
		counts[z.Sample()]++
	}
	if counts[0] <= counts[100] {
		t.Fatalf("rank 0 (%d) not hotter than rank 100 (%d)", counts[0], counts[100])
	}
	if counts[0] <= counts[9999] {
		t.Fatalf("rank 0 (%d) not hotter than tail (%d)", counts[0], counts[9999])
	}
}

func TestZipfHigherExponentIsHotter(t *testing.T) {
	uLow := UniqueFraction(3, 100000, 50000, 0.3)
	uHigh := UniqueFraction(3, 100000, 50000, 1.5)
	if uHigh >= uLow {
		t.Fatalf("unique fraction should fall with exponent: s=0.3→%.3f, s=1.5→%.3f", uLow, uHigh)
	}
}

func TestZipfSmallN(t *testing.T) {
	rng := NewRNG(4)
	z := NewZipf(rng, 1, 1.0)
	for i := 0; i < 100; i++ {
		if z.Sample() != 0 {
			t.Fatal("n=1 sampler must always return 0")
		}
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-5, 1}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%d, %g) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(NewRNG(1), tc.n, tc.s)
		}()
	}
}

func TestCalibrateZipfExponent(t *testing.T) {
	// The paper reports unique-access fractions of 3%, 24%, 60% for
	// High/Medium/Low hotness. Calibration must recover exponents that
	// reproduce those fractions on a fresh stream.
	for _, target := range []float64{0.03, 0.24, 0.60} {
		s := CalibrateZipfExponent(7, 50000, 20000, target)
		got := UniqueFraction(99, 50000, 20000, s)
		if diff := got - target; diff > 0.05 || diff < -0.05 {
			t.Errorf("target unique=%.2f: calibrated s=%.3f gives %.3f", target, s, got)
		}
	}
}

func TestAccessCountsSortedDescending(t *testing.T) {
	rng := NewRNG(8)
	z := NewZipf(rng, 5000, 1.0)
	counts := AccessCounts(z.Sample, 30000)
	total := 0
	for i, c := range counts {
		total += c
		if i > 0 && counts[i-1] < c {
			t.Fatalf("counts not descending at %d", i)
		}
	}
	if total != 30000 {
		t.Fatalf("counts sum to %d, want 30000", total)
	}
}

func BenchmarkZipfSample(b *testing.B) {
	rng := NewRNG(1)
	z := NewZipf(rng, 1_000_000, 1.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample()
	}
}

// BenchmarkZipfSampleShared draws from a shared sampler (hot-rank table
// included) at cluster-day's table size and the three trace hotness
// exponents.
func BenchmarkZipfSampleShared(b *testing.B) {
	for _, s := range []float64{0.40, 0.893, 1.326} {
		b.Run(fmt.Sprintf("s=%g", s), func(b *testing.B) {
			z := NewSharedZipf(125_000, s)
			rng := SeededRNG(1)
			b.ReportAllocs()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += z.SampleWith(&rng)
			}
			zipfSink = acc
		})
	}
}

// zipfSink keeps benchmark draws live.
var zipfSink int
