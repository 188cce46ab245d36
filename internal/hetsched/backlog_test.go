package hetsched

import (
	"reflect"
	"testing"
)

// gpuBatchFleet is the cpu2gpu1 mix with the GPU's batch limit and hold
// window overridden, as het2 sweeps it.
func gpuBatchFleet(t testing.TB, maxBatch int, holdUs float64) []DeviceSpec {
	devs := mustMix(t, "cpu2gpu1")
	for i := range devs {
		if devs[i].Class == GPUClass {
			devs[i].MaxBatch = maxBatch
			devs[i].HoldUs = holdUs
		}
	}
	return devs
}

// backlogConfig is het2's worst point: a batch-of-1 GPU offered the load
// that fills a batch-64 GPU to 85%, far above what per-launch costs let
// it serve, so its queue grows for the whole run.
func backlogConfig(t testing.TB, requests int) Config {
	g := testGraph()
	return Config{
		Graph:         g,
		Devices:       gpuBatchFleet(t, 1, 0),
		Policy:        Affinity,
		MeanArrivalMs: ArrivalForUtilization(g, gpuBatchFleet(t, 64, 40), 0.85),
		Requests:      requests,
		Seed:          21,
	}
}

// TestBackloggedResultsPinned holds the scheduler bit-for-bit on deep
// backlogs, where the golden sweeps only sample moderate load: every
// field of every Result must equal the values recorded before the ready
// queues became per-kind FIFOs, when each launch rescanned the device's
// whole queue.
func TestBackloggedResultsPinned(t *testing.T) {
	g := testGraph()
	at := func(mix string, util float64) float64 {
		return ArrivalForUtilization(g, mustMix(t, mix), util)
	}
	gpuRef := gpuBatchFleet(t, 64, 40)
	// Between them the configs drive every kind of queue traffic under
	// deep backlog: batch pops, hold expiries, steals, EFT's queue
	// estimates and SMT sibling factors.
	cases := []struct {
		name string
		cfg  Config
		want Result
	}{
		{"cpu2gpu1-batch1", backlogConfig(t, 3000),
			Result{P50: 248.0870331061289, P95: 269.8732523358313, P99: 272.30587389511896, Mean: 229.23137310515295, ThroughputQPS: 8668.310510794596, MeanPhaseWaitMs: 57.91292292292254, MeanBatchItems: 0, Steals: 0, Util: [3]float64{0.19014482029644852, 0.9999580281659405, 0}, UtilTotal: 0.4600825562529458, CrossKindOverlapMs: 0, SameKindOverlapMs: 0}},
		{"cpu2gpu1-batch16-hold", Config{
			Graph: g, Devices: gpuBatchFleet(t, 16, 40), Policy: Affinity,
			MeanArrivalMs: ArrivalForUtilization(g, gpuRef, 1.2), Requests: 3000, JitterFrac: 0.2, Seed: 22},
			Result{P50: 12.501462216817508, P95: 21.88952874874215, P99: 22.88162568004868, Mean: 12.408784874536252, ThroughputQPS: 45448.1576975115, MeanPhaseWaitMs: 3.080216694306799, MeanBatchItems: 6.5982404692082115, Steals: 0, Util: [3]float64{0.9966660247469894, 0.9985217502564265, 0}, UtilTotal: 0.9972845999168017, CrossKindOverlapMs: 0, SameKindOverlapMs: 0}},
		{"biglittle-steal", Config{
			Graph: g, Devices: mustMix(t, "biglittle"), Policy: Steal,
			MeanArrivalMs: at("biglittle", 1.6), Requests: 3000, JitterFrac: 0.3, Seed: 23},
			Result{P50: 31.537572786147038, P95: 53.577549747872496, P99: 59.780226676906054, Mean: 33.41976748226814, ThroughputQPS: 33359.20687595188, MeanPhaseWaitMs: 8.693879011587697, MeanBatchItems: 0, Steals: 3264, Util: [3]float64{0.9992030289380011, 0, 0}, UtilTotal: 0.9992030289380011, CrossKindOverlapMs: 0, SameKindOverlapMs: 0}},
		{"hetero-eft", Config{
			Graph: g, Devices: mustMix(t, "hetero"), Policy: EFT,
			MeanArrivalMs: at("hetero", 1.1), Requests: 3000, JitterFrac: 0.2, Seed: 24},
			Result{P50: 11.943550161468114, P95: 13.243050051689467, P99: 13.73211233275985, Mean: 10.310207951145195, ThroughputQPS: 124556.82194769094, MeanPhaseWaitMs: 3.223353293645857, MeanBatchItems: 30.124293785310734, Steals: 0, Util: [3]float64{0.9991069658382841, 0.9914174619285719, 0.7345505618181738}, UtilTotal: 0.8917465034482975, CrossKindOverlapMs: 0, SameKindOverlapMs: 0}},
		{"smt2-jitter", Config{
			Graph: g, Devices: mustMix(t, "smt2"), Policy: EFT,
			MeanArrivalMs: at("smt2", 1.05), Requests: 3000, JitterFrac: 0.4, Seed: 25},
			Result{P50: 99.88990590269121, P95: 114.93734237873664, P99: 116.50392939333891, Mean: 88.19637709213572, ThroughputQPS: 14318.627984281991, MeanPhaseWaitMs: 29.117718998580486, MeanBatchItems: 0, Steals: 0, Util: [3]float64{0.9994685206045869, 0, 0}, UtilTotal: 0.9994685206045869, CrossKindOverlapMs: 72.7037363785274, SameKindOverlapMs: 131.5980098099613}},
	}
	for _, tc := range cases {
		if got := run(t, tc.cfg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: result moved:\ngot  %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
