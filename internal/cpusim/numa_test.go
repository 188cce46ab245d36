package cpusim

import (
	"testing"

	"dlrmsim/internal/memsim"
)

func numaParams(sockets, coresPer int) SystemParams {
	p := testSystemParams(coresPer)
	p.Sockets = sockets
	p.RemotePenaltyCyc = 150
	return p
}

// pageLoads scans page-interleaved memory from base with a stride of one
// page plus a line, so consecutive accesses alternate home sockets.
func pageLoads(base memsim.Addr) StreamFactory {
	return func() Stream {
		ops := make([]Op, 400)
		for i := range ops {
			ops[i] = Op{Kind: OpLoad, Addr: base + memsim.Addr(i)*(4096+64)}
		}
		return NewSliceStream(ops)
	}
}

func TestSingleSocketHasNoRemoteFills(t *testing.T) {
	res := NewSystem(numaParams(1, 2)).Run([]CoreWork{
		SingleWork(loadFactory(200, 0)),
		SingleWork(pageLoads(1 << 32)),
	})
	if res.RemoteFillFraction != 0 {
		t.Fatalf("1-socket run reported %g remote fills", res.RemoteFillFraction)
	}
	if len(res.SocketBandwidthBytesPerCyc) != 1 || res.SocketBandwidthBytesPerCyc[0] != res.BandwidthBytesPerCyc {
		t.Fatalf("socket bandwidth %v, want one entry equal to %g",
			res.SocketBandwidthBytesPerCyc, res.BandwidthBytesPerCyc)
	}
}

func TestNUMARemoteAccessesCostMore(t *testing.T) {
	// One core on socket 0 scanning page-interleaved memory: ~half the
	// fills are remote, so the run must be slower than a UMA system and
	// must report remote traffic.
	work := []CoreWork{SingleWork(pageLoads(0))}
	numa := NewSystem(numaParams(2, 1)).Run(work)
	flat := NewSystem(testSystemParams(1)).Run(work)
	if numa.Cycles <= flat.Cycles {
		t.Fatalf("NUMA run (%g) not slower than UMA (%g)", numa.Cycles, flat.Cycles)
	}
	if numa.RemoteFillFraction < 0.3 || numa.RemoteFillFraction > 0.7 {
		t.Fatalf("remote fill fraction = %g, want ~0.5 under page interleaving", numa.RemoteFillFraction)
	}
	if numa.AvgLoadLatency <= flat.AvgLoadLatency {
		t.Fatalf("NUMA load latency %g not above UMA %g", numa.AvgLoadLatency, flat.AvgLoadLatency)
	}
	// With socket 1 idle, every fill its DRAM served was remote.
	want := numa.SocketBandwidthBytesPerCyc[1] / numa.BandwidthBytesPerCyc
	if d := numa.RemoteFillFraction - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("remote fill fraction %g, idle socket's share of traffic %g", numa.RemoteFillFraction, want)
	}
}

func TestNUMARemoteFillsCountedOnBothSockets(t *testing.T) {
	// One core per socket, both scanning interleaved memory: each
	// socket's cores fault about half their lines to the other socket,
	// so the remote share stays near one half with no idle socket.
	res := NewSystem(numaParams(2, 1)).Run([]CoreWork{
		SingleWork(pageLoads(0)),
		SingleWork(pageLoads(1 << 32)),
	})
	if res.RemoteFillFraction < 0.3 || res.RemoteFillFraction > 0.7 {
		t.Fatalf("remote fill fraction = %g with both sockets active, want ~0.5", res.RemoteFillFraction)
	}
}

func TestNUMATwoSocketsDoubleBandwidth(t *testing.T) {
	// Symmetric load on both sockets: aggregate bandwidth should exceed
	// one socket's run.
	mk := func(n int) []CoreWork {
		w := make([]CoreWork, n)
		for i := range w {
			w[i] = SingleWork(loadFactory(400, memsim.Addr(i)<<32))
		}
		return w
	}
	two := NewSystem(numaParams(2, 2)).Run(mk(4))
	var bwTwo float64
	for _, b := range two.SocketBandwidthBytesPerCyc {
		bwTwo += b
	}
	one := NewSystem(testSystemParams(2)).Run(mk(2))
	if bwTwo <= one.BandwidthBytesPerCyc {
		t.Fatalf("2-socket bandwidth %.2f not above 1-socket %.2f", bwTwo, one.BandwidthBytesPerCyc)
	}
	if len(two.PerCore) != 4 {
		t.Fatalf("per-core results = %d", len(two.PerCore))
	}
}

func TestNUMAPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSystem(numaParams(-1, 1)) },
		func() { NewSystem(numaParams(3, 1)) },
		func() { NewSystem(numaParams(2, 0)) },
		func() { NewSystem(numaParams(2, 2)).Run(make([]CoreWork, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestNUMADeterministic(t *testing.T) {
	run := func() SystemResult {
		return NewSystem(numaParams(2, 2)).Run([]CoreWork{
			SingleWork(loadFactory(100, 0)),
			SingleWork(loadFactory(100, 1<<32)),
			SingleWork(loadFactory(100, 2<<32)),
		})
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.AvgLoadLatency != b.AvgLoadLatency || a.RemoteFillFraction != b.RemoteFillFraction {
		t.Fatal("NUMA run not deterministic")
	}
}
