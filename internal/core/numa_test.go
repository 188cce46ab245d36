package core

import (
	"testing"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/trace"
)

func numaOpts() NUMAOptions {
	return NUMAOptions{
		Model:               dlrm.RM2Small().Scaled(16),
		Hotness:             trace.MediumHot,
		BatchSize:           16,
		Seed:                1,
		Sockets:             1,
		CoresPerSocket:      2,
		ActiveCores:         2,
		BandwidthIterations: 2,
	}
}

func TestRunNUMAPinnedBaseline(t *testing.T) {
	rep, err := RunNUMA(numaOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchLatencyCycles <= 0 || rep.BatchLatencyMs <= 0 {
		t.Fatalf("latency = %g cyc / %g ms", rep.BatchLatencyCycles, rep.BatchLatencyMs)
	}
	if rep.RemoteFillFraction != 0 {
		t.Fatalf("pinned run reported %g remote fills", rep.RemoteFillFraction)
	}
	if len(rep.SocketBandwidthGBs) != 1 {
		t.Fatalf("socket BW entries = %d", len(rep.SocketBandwidthGBs))
	}
}

func TestRunNUMAInterleavedIsSlower(t *testing.T) {
	pinned, err := RunNUMA(numaOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := numaOpts()
	o.Sockets = 2
	inter, err := RunNUMA(o)
	if err != nil {
		t.Fatal(err)
	}
	if inter.BatchLatencyCycles <= pinned.BatchLatencyCycles {
		t.Fatalf("interleaved (%g) not slower than pinned (%g)",
			inter.BatchLatencyCycles, pinned.BatchLatencyCycles)
	}
	if inter.RemoteFillFraction < 0.25 {
		t.Fatalf("remote fill fraction = %g, want ~0.5", inter.RemoteFillFraction)
	}
	if len(inter.SocketBandwidthGBs) != 2 {
		t.Fatalf("socket BW entries = %d", len(inter.SocketBandwidthGBs))
	}
}

func TestRunNUMAPrefetchHelpsRemote(t *testing.T) {
	o := numaOpts()
	o.Sockets = 2
	base, err := RunNUMA(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Prefetch = embedding.PrefetchConfig{Dist: 4, Blocks: 8}
	swpf, err := RunNUMA(o)
	if err != nil {
		t.Fatal(err)
	}
	if swpf.BatchLatencyCycles >= base.BatchLatencyCycles {
		t.Fatalf("SW-PF (%g) did not help interleaved run (%g)",
			swpf.BatchLatencyCycles, base.BatchLatencyCycles)
	}
}

func TestRunNUMAValidation(t *testing.T) {
	o := numaOpts()
	o.ActiveCores = 100
	if _, err := RunNUMA(o); err == nil {
		t.Fatal("accepted more active cores than exist")
	}
	o = numaOpts()
	o.Model.Tables = 0
	if _, err := RunNUMA(o); err == nil {
		t.Fatal("accepted invalid model")
	}
	// Only one socket or two page-interleaved sockets are modeled; any
	// other count must fail rather than run unconnected sockets.
	for _, n := range []int{-1, 3} {
		o = numaOpts()
		o.Sockets = n
		o.ActiveCores = 1
		if _, err := RunNUMA(o); err == nil {
			t.Fatalf("accepted %d sockets", n)
		}
	}
}

func TestRunNUMADefaults(t *testing.T) {
	rep, err := RunNUMA(NUMAOptions{
		Model:   dlrm.RM2Small().Scaled(20),
		Hotness: trace.HighHot,
		Seed:    2,
		// everything else defaulted: 1 socket, all 24 CSL cores active
		CoresPerSocket: 2, // keep the test fast
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchLatencyCycles <= 0 {
		t.Fatal("empty report")
	}
}

func TestReportHelpers(t *testing.T) {
	a := Report{BatchLatencyCycles: 100, StageCycles: map[string]float64{StageEmbedding: 60}}
	b := Report{BatchLatencyCycles: 50, StageCycles: map[string]float64{StageSMTPair: 40}}
	if a.Speedup(b) != 0.5 {
		t.Fatalf("speedup = %g", a.Speedup(b))
	}
	if (Report{}).Speedup(a) != 0 {
		t.Fatal("zero-latency speedup should be 0")
	}
	if a.EmbeddingStageCycles() != 60 {
		t.Fatal("explicit embedding stage not used")
	}
	if b.EmbeddingStageCycles() != 40 {
		t.Fatal("SMT pair fallback not used")
	}
}
