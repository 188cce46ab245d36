package exp

import (
	"fmt"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

func init() {
	register(Experiment{ID: "ext4", Title: "Socket pinning vs page-interleaved NUMA (extension)", Run: runExt4})
}

// ext4Cell is one row of ext4: a core placement crossed with a
// prefetch setting. key names the placement in golden keys.
type ext4Cell struct {
	key, placement, prefetch string
	opts                     core.NUMAOptions
}

// ext4Cells lists ext4's rows in table order: pinning inference to one
// socket (the paper's deployment), letting the same cores fault half
// their embedding traffic to the remote socket (page-interleaved
// tables), and doubling the cores across both sockets — each without
// and with software prefetch.
func ext4Cells(c Config) []ext4Cell {
	model := c.model(dlrm.RM2Small())
	cores := c.multiCores(platform.CascadeLake())
	if cores > 8 {
		cores = 8
	}
	placements := []struct {
		key, name   string
		sockets     int
		activeCores int
	}{
		{"pinned", "pinned: 1 socket (paper)", 1, cores},
		{"interleaved", "interleaved: 1 socket's cores, 2 sockets' memory", 2, cores},
		{"spread", "spread: both sockets' cores", 2, 2 * cores},
	}
	var cells []ext4Cell
	for _, pl := range placements {
		for _, pf := range []embedding.PrefetchConfig{{}, {Dist: 4, Blocks: 8}} {
			pfName := "off"
			if pf.Enabled() {
				pfName = "SW-PF"
			}
			cells = append(cells, ext4Cell{
				key: pl.key, placement: pl.name, prefetch: pfName,
				opts: core.NUMAOptions{
					Model:               model,
					Hotness:             trace.MediumHot,
					BatchSize:           c.BatchSize,
					Seed:                c.Seed,
					Sockets:             pl.sockets,
					CoresPerSocket:      cores,
					ActiveCores:         pl.activeCores,
					Prefetch:            pf,
					BandwidthIterations: c.BandwidthIterations,
				},
			})
		}
	}
	return cells
}

func runExt4(x *Context) (*Table, error) {
	t := &Table{
		ID: "ext4", Title: "NUMA placement (rm2_1, Medium Hot, embedding-only)",
		Headers: []string{"placement", "prefetch", "batch latency (ms)", "avg load lat (cyc)", "remote fills", "per-socket BW (GB/s)"},
	}
	for _, cell := range ext4Cells(x.Cfg) {
		rep, err := core.RunNUMA(cell.opts)
		if err != nil {
			return nil, err
		}
		bw := ""
		for i, b := range rep.SocketBandwidthGBs {
			if i > 0 {
				bw += " / "
			}
			bw += fmt.Sprintf("%.1f", b)
		}
		t.AddRow(cell.placement, cell.prefetch, f2(rep.BatchLatencyMs), f1(rep.AvgLoadLatency),
			pct(rep.RemoteFillFraction), bw)
	}
	t.AddNote("pinning avoids the interconnect penalty on every remote fill; SW-PF hides part of the remote latency too, making interleaved placement less painful")
	return t, nil
}
