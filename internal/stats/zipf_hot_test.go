package stats

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// hotShapes are the (n, s) shapes the hot-rank table is checked at: the
// goodness-of-fit shapes, extreme exponents, s == 1 (no table) and the
// smallest tables, where both region edges clamp.
var hotShapes = []struct {
	n int
	s float64
}{
	{125_000, 0.40}, {125_000, 0.893}, {125_000, 1.326}, {1_000, 1.05},
	{125_000, 0.01}, {125_000, 2.5}, {125_000, 1.0},
	{1_000, 0.01}, {1_000, 2.5},
	{1, 0.893}, {2, 0.893}, {3, 0.893},
	{1, 0.01}, {2, 2.5}, {3, 1.326},
}

// checkHotAgrees fails t when the table's verdict on u differs from the
// exact iteration's. A hotExact verdict defers to the exact path, so it
// always agrees.
func checkHotAgrees(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	rank, v := z.hot.lookup(u)
	want, ok := z.exactDecide(u)
	switch {
	case v == hotAccept && (!ok || rank != want):
		t.Fatalf("n=%g s=%g u=%v: table accepts rank %d, exact gives (%d, %v)", z.n, z.s, u, rank, want, ok)
	case v == hotReject && ok:
		t.Fatalf("n=%g s=%g u=%v: table rejects, exact accepts rank %d", z.n, z.s, u, want)
	}
}

// checkHotNeighbours checks u and the floats on either side of it.
func checkHotNeighbours(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	if math.IsInf(u, 0) {
		return
	}
	checkHotAgrees(t, z, math.Nextafter(u, math.Inf(-1)))
	checkHotAgrees(t, z, u)
	checkHotAgrees(t, z, math.Nextafter(u, math.Inf(1)))
}

// checkHotRank checks every tabulated edge of table entry i, and the
// unguarded region and squeeze edges the guard bands surround.
func checkHotRank(t *testing.T, z *Zipf, i int) {
	t.Helper()
	r := z.hot.ranks[i]
	k := float64(i + 1)
	for _, u := range []float64{
		r.lo, r.hi, r.rej, r.acc, z.threshold(k),
		z.h(k - 0.5), z.h(k + 0.5), z.h(k - z.sCut),
	} {
		checkHotNeighbours(t, z, u)
	}
}

// TestHotTableBoundaries compares the table with the exact iteration at
// both neighbours of every edge of every tabulated rank, and at the ends
// of the sampled u range.
func TestHotTableBoundaries(t *testing.T) {
	for _, sh := range hotShapes {
		z := NewSharedZipf(sh.n, sh.s)
		if sh.s == 1 {
			if z.hot != nil {
				t.Fatalf("n=%d s=1: built a table with an unbounded guard", sh.n)
			}
			continue
		}
		if z.hot == nil {
			t.Fatalf("n=%d s=%g: no hot-rank table", sh.n, sh.s)
		}
		if want := min(sh.n, hotRanks) + 1; len(z.hot.ranks) != want {
			t.Fatalf("n=%d s=%g: %d table entries, want %d", sh.n, sh.s, len(z.hot.ranks), want)
		}
		for i := 0; i+1 < len(z.hot.ranks); i++ {
			checkHotRank(t, z, i)
		}
		checkHotNeighbours(t, z, z.hx0)
		checkHotNeighbours(t, z, z.hImaxPlus1)
	}
}

// TestHotTableSettlesMostDraws guards the speed-up itself: at
// cluster-day's shape the table must settle at least half of all
// iterations (ranks 1..4096 hold about 60% of the mass there), rather
// than deferring them to the exact path.
func TestHotTableSettlesMostDraws(t *testing.T) {
	z := NewSharedZipf(125_000, 0.893)
	rng := SeededRNG(3)
	const iters = 200_000
	settled := 0
	for i := 0; i < iters; i++ {
		u := z.hImaxPlus1 + rng.Float64()*(z.hx0-z.hImaxPlus1)
		if _, v := z.hot.lookup(u); v != hotExact {
			settled++
		}
	}
	if settled < iters/2 {
		t.Fatalf("table settled %d of %d iterations, want at least half", settled, iters)
	}
}

// TestSharedZipfStreamMatchesExact draws 10^8 ranks at cluster-day's
// shape from a shared sampler and from a table-free one on identical
// generators: every rank and the generators' final states must match.
func TestSharedZipfStreamMatchesExact(t *testing.T) {
	draws := 100_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	const n, s = 125_000, 0.893
	shared, plain := NewSharedZipf(n, s), NewZipf(nil, n, s)
	a, b := SeededRNG(20240601), SeededRNG(20240601)
	for i := 0; i < draws; i++ {
		if x, y := shared.SampleWith(&a), plain.SampleWith(&b); x != y {
			t.Fatalf("draw %d: shared sampler gave rank %d, exact %d", i, x, y)
		}
	}
	if a != b {
		t.Fatal("generators diverged: the table consumed a different number of draws")
	}
}

// FuzzZipfFastPath checks the table against the exact iteration at a
// fuzzed (n, s) and a u reachable from a fuzzed generator output, and at
// the edges of one fuzzed rank of the table.
func FuzzZipfFastPath(f *testing.F) {
	f.Add(uint32(125_000), 0.893, uint64(0))
	f.Add(uint32(125_000), 1.326, uint64(1)<<63)
	f.Add(uint32(3), 0.01, ^uint64(0))
	f.Add(uint32(1), 2.5, uint64(12345))
	f.Fuzz(func(t *testing.T, n32 uint32, s float64, bits uint64) {
		n := int(n32%200_000) + 1
		if math.IsNaN(s) || math.IsInf(s, 0) {
			s = 1
		}
		s = 0.01 + math.Mod(math.Abs(s), 3)
		z := NewSharedZipf(n, s)
		if z.hot == nil {
			return
		}
		u := z.hImaxPlus1 + float64(bits>>11)/(1<<53)*(z.hx0-z.hImaxPlus1)
		checkHotNeighbours(t, z, u)
		checkHotRank(t, z, int(bits%uint64(len(z.hot.ranks)-1)))
	})
}

// TestSharedZipfConcurrent: goroutines sharing one sampler, each with
// its own generator, draw exactly what they draw alone. Run under -race
// it checks that the table is only read after construction.
func TestSharedZipfConcurrent(t *testing.T) {
	const workers, draws = 4, 20_000
	z := NewSharedZipf(125_000, 0.893)
	want := make([][]int, workers)
	for w := range want {
		rng := SeededRNG(uint64(w))
		for i := 0; i < draws; i++ {
			want[w] = append(want[w], z.SampleWith(&rng))
		}
	}
	got := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := SeededRNG(uint64(w))
			for i := 0; i < draws; i++ {
				got[w] = append(got[w], z.SampleWith(&rng))
			}
		}()
	}
	wg.Wait()
	for w := range want {
		if !slices.Equal(got[w], want[w]) {
			t.Fatalf("worker %d: concurrent draws differ from its sequential stream", w)
		}
	}
}
