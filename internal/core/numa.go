package core

import (
	"fmt"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

// NUMAOptions configures a multi-socket embedding-stage run. The paper
// pins inference to one socket of its 2-socket testbed; this extension
// quantifies the alternative — page-interleaved tables with cores on one
// or both sockets.
type NUMAOptions struct {
	// Model, Hotness, BatchSize, Seed as in Options. The platform is the
	// paper's Cascade Lake 6240R (the only modeled 2-socket testbed).
	Model     dlrm.Config
	Hotness   trace.Hotness
	BatchSize int
	Seed      uint64

	// Sockets (0 or 1 for one socket, or 2) and CoresPerSocket shape
	// the node.
	Sockets        int
	CoresPerSocket int
	// ActiveCores run one batch each (socket-major placement); the rest
	// idle. This is how "pinned to socket 0" (ActiveCores ≤
	// CoresPerSocket) versus "spread" is expressed.
	ActiveCores int
	// Prefetch enables Algorithm 3 in the embedding streams.
	Prefetch embedding.PrefetchConfig
	// BandwidthIterations bounds the per-socket fixed point.
	BandwidthIterations int
}

// remotePenaltyCyc is the interconnect penalty of a remote-socket fill
// on the 6240R in core cycles (~60 ns at 2.4 GHz).
const remotePenaltyCyc = 150

// NUMAReport is the embedding-only result of a multi-socket run.
type NUMAReport struct {
	BatchLatencyCycles float64
	BatchLatencyMs     float64
	AvgLoadLatency     float64
	RemoteFillFraction float64
	SocketBandwidthGBs []float64
}

// RunNUMA executes the embedding stage of one batch per active core on a
// (possibly) multi-socket Cascade Lake node.
func RunNUMA(opts NUMAOptions) (NUMAReport, error) {
	cpu := platform.CascadeLake()
	if opts.BatchSize == 0 {
		opts.BatchSize = 64
	}
	if opts.Sockets < 0 || opts.Sockets > 2 {
		return NUMAReport{}, fmt.Errorf("core: %d sockets; want 0, 1 or 2", opts.Sockets)
	}
	if opts.Sockets == 0 {
		opts.Sockets = 1
	}
	if opts.CoresPerSocket == 0 {
		opts.CoresPerSocket = cpu.Cores
	}
	if opts.ActiveCores == 0 {
		opts.ActiveCores = opts.CoresPerSocket
	}
	if opts.ActiveCores > opts.Sockets*opts.CoresPerSocket {
		return NUMAReport{}, fmt.Errorf("core: %d active cores on %d", opts.ActiveCores, opts.Sockets*opts.CoresPerSocket)
	}
	if err := opts.Model.Validate(); err != nil {
		return NUMAReport{}, err
	}
	model, err := dlrm.New(opts.Model, opts.Seed)
	if err != nil {
		return NUMAReport{}, err
	}
	ds, err := trace.NewDataset(trace.Config{
		Hotness:          opts.Hotness,
		Rows:             opts.Model.RowsPerTable,
		Tables:           opts.Model.Tables,
		BatchSize:        opts.BatchSize,
		LookupsPerSample: opts.Model.LookupsPerSample,
		Batches:          opts.ActiveCores,
		Seed:             opts.Seed ^ 0xDA7A,
	})
	if err != nil {
		return NUMAReport{}, err
	}
	sys := cpusim.NewSystem(cpusim.SystemParams{
		Core:                cpu.Core,
		Mem:                 cpu.Mem,
		Cores:               opts.CoresPerSocket,
		Sockets:             opts.Sockets,
		RemotePenaltyCyc:    remotePenaltyCyc,
		BandwidthIterations: opts.BandwidthIterations,
	})
	work := make([]cpusim.CoreWork, opts.ActiveCores)
	for c := 0; c < opts.ActiveCores; c++ {
		c := c
		work[c] = cpusim.SingleWork(func() cpusim.Stream {
			return model.EmbeddingStream(
				func(tableID int) trace.TableBatch { return ds.Batch(c, tableID) },
				dlrm.StreamParams{
					FlopsPerCycle: cpu.FlopsPerCycle,
					Batch:         opts.BatchSize,
					BufBase:       bufBase(c, 0),
					Prefetch:      opts.Prefetch,
				})
		})
	}
	res := sys.Run(work)
	rep := NUMAReport{
		BatchLatencyCycles: res.MeanCoreCycles(),
		AvgLoadLatency:     res.AvgLoadLatency,
		RemoteFillFraction: res.RemoteFillFraction,
	}
	rep.BatchLatencyMs = cpu.CyclesToMs(rep.BatchLatencyCycles)
	for _, b := range res.SocketBandwidthBytesPerCyc {
		rep.SocketBandwidthGBs = append(rep.SocketBandwidthGBs, b*cpu.FrequencyGHz)
	}
	return rep, nil
}
