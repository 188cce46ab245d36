package stats

import "math"

// The hot-rank table: an exact fast path for the hottest ranks of a
// shared Zipf sampler.
//
// One rejection-inversion iteration maps u to x = hInv(u) and lands on
// rank k when x is in [k-0.5, k+0.5) (clamped to [1, n]). It accepts when
// the squeeze k-x <= sCut holds, that is when x >= k-sCut, and otherwise
// exactly when u >= T_k = threshold(k). h is increasing, so every x edge
// is a u edge: rank k owns u in (h(k-0.5), h(k+0.5)), and the squeeze
// holds above h(k-sCut). The table stores these edges for k = 1..K, so a
// draw that lands there needs one multiply, a guide lookup and a few
// compares instead of hInv's exp and log.
//
// The computed hInv(u) differs from the true inverse by rounding, so u
// just past an edge can land on either side of it. Each x edge e is
// therefore widened into a guard band [h(e(1-g)), h(e(1+g))], and a u
// inside any band falls back to exactDecide. To first order in the unit
// roundoff ε = 2^-52, with Go's exp and log within 1 ulp, the relative
// error of the computed hInv(u) against the true inverse of the computed
// h is at most
//
//	(2.5·|1/(1-s)| + 3.5·ln(n+1) + 3.5)·ε
//
// made up as follows, with x in [0.5, n+0.5]:
//   - hInv itself: exp's argument (1/(1-s))·log((1-s)·u) has absolute
//     error 0.5·|1/(1-s)|·ε from the product inside log and 1.5·ln(n+1)·ε
//     from log and the outer product; exp adds ε.
//   - h at a band edge: log, the product and exp, then the product by
//     1/(1-s), give a relative error of (1.5·|1-s|·ln(n+1) + 1.5)·ε in u,
//     which hInv's slope scales by |1/(1-s)| in x.
//   - hInv and h are not exact inverses, because the stored 1-s and
//     1/(1-s) multiply to 1 only within ε/2: another
//     0.5·(|1/(1-s)| + ln(n+1))·ε.
//   - rounding the band edge e(1±g) itself, the edge k-sCut, and
//     x+0.5 inside floor: 2ε together. The squeeze difference k-x is
//     exact by Sterbenz's lemma wherever it is compared.
//
// The guard g = (|1/(1-s)| + ln(n+1) + 4)·2^-40 is 2^12 times
// (|1/(1-s)| + ln(n+1) + 4)·ε, at least 1,170 times the bound, so even
// exp or log implementations a few hundred ulps off keep the table exact.
// The bands are so thin that their share of draws is negligible. When
// s is near 1 the bound blows up with 1/(1-s); above g = 1e-6 the table is
// not built (s == 1, run as 1+1e-9, is the only such case in the repo).
//
// Inside a rank's region and outside its bands, the rank is certain and
// the squeeze's outcome is known on each side of the squeeze band, while
// the second test compares u against the stored T_k, which is the same
// float64 exactDecide computes. So the table accepts on u >= acc and
// rejects on u < rej, where
//
//	rej = min(T_k, squeeze band low), acc = min(T_k, just above squeeze band high)
//
// and falls back in between. Whenever T_k is at or below the squeeze
// band, acc = rej = T_k and only region-edge bands fall back; at the
// repo's shapes that holds for every rank but k = 1. A rejected draw
// goes round the loop again, exactly as exactDecide's rejection does.

// hotRanks caps the table's length K = min(n, hotRanks). Larger tables
// cover more draws but spill out of L2; DESIGN.md §9.4 records the sizing
// runs.
const hotRanks = 4096

// hotGuardMax is the widest guard band the table is built with.
const hotGuardMax = 1e-6

// hotVerdict is the table's answer for one u.
type hotVerdict uint8

const (
	hotExact  hotVerdict = iota // u is outside the table or in a guard band
	hotAccept                   // the iteration accepts the rank
	hotReject                   // the iteration rejects; draw again
)

// hotRank is one rank's decision in u-space.
type hotRank struct {
	// lo and hi bound the u where the rank is certain: [lo, hi).
	lo, hi float64
	// u < rej rejects and u >= acc accepts.
	rej, acc float64
}

// hotTable is the immutable hot-rank table of one (n, s).
type hotTable struct {
	// base and scale map u to its guide cell int((u-base)*scale). The
	// map is monotone in u, so guide never points past u's rank.
	base, scale float64
	// end is the upper end of the last rank's region: SampleWith sends
	// u >= end, the tail, to the exact path without a lookup.
	end float64
	// guide[c] is the first rank whose hi lies in cell c or beyond.
	guide []int32
	// ranks[i] is rank i+1; a last sentinel entry with lo = hi = +Inf
	// ends every scan and sends the tail to the exact path.
	ranks []hotRank
}

// newHotTable builds z's table, or returns nil when the guard band would
// be wider than hotGuardMax.
func newHotTable(z *Zipf) *hotTable {
	g := (math.Abs(z.invOneMinusS) + math.Log(z.n+1) + 4) * 0x1p-40
	if g > hotGuardMax {
		return nil
	}
	inf := math.Inf(1)
	k := int(math.Min(z.n, hotRanks))
	ranks := make([]hotRank, k+1)
	for i := range ranks[:k] {
		kf := float64(i + 1)
		r := hotRank{lo: math.Inf(-1), hi: inf}
		if i > 0 { // below x = 0.5 the rank clamps to 1: no lower edge
			r.lo = math.Nextafter(z.h((kf-0.5)*(1+g)), inf)
		}
		if kf < z.n { // above x = n+0.5 the rank clamps to n: no upper edge
			r.hi = z.h((kf + 0.5) * (1 - g))
		}
		xs := kf - z.sCut
		t := z.threshold(kf)
		r.rej = math.Min(t, z.h(xs*(1-g)))
		r.acc = math.Min(t, math.Nextafter(z.h(xs*(1+g)), inf))
		ranks[i] = r
	}
	ranks[k] = hotRank{lo: inf, hi: inf}

	end := ranks[k-1].hi
	if math.IsInf(end, 1) {
		end = z.hImaxPlus1
	}
	t := &hotTable{base: z.hx0, end: end, guide: make([]int32, k), ranks: ranks}
	t.scale = float64(len(t.guide)) / (end - t.base)
	c := 0
	for i, r := range ranks {
		last := len(t.guide) - 1
		if !math.IsInf(r.hi, 1) {
			last = min(last, t.cell(r.hi))
		}
		for ; c <= last; c++ {
			t.guide[c] = int32(i)
		}
	}
	return t
}

// cell is u's guide cell; it may fall outside the guide.
func (t *hotTable) cell(u float64) int { return int((u - t.base) * t.scale) }

// lookup returns the table's verdict on u and, on hotAccept, the rank
// in [0, n) the draw returns.
func (t *hotTable) lookup(u float64) (int, hotVerdict) {
	c := t.cell(u)
	if uint(c) >= uint(len(t.guide)) {
		return 0, hotExact
	}
	i := int(t.guide[c])
	for u >= t.ranks[i].hi {
		i++
	}
	r := &t.ranks[i]
	switch {
	case u < r.lo:
		return 0, hotExact
	case u >= r.acc:
		return i, hotAccept
	case u < r.rej:
		return 0, hotReject
	}
	return 0, hotExact
}
