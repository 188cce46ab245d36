package cluster

// Execution-backend selection (DESIGN.md §14): how many workers one
// simulation run spreads its lookup draws over. Both load modes run one
// sequential event loop; the only intra-run parallelism is the pre-draw
// (predraw.go). Every query's lookup ranks are pure functions of
// (Seed, query, table) — independent RNG lanes via stats.SplitSeed — so
// each block of the arrival ring is drawn over P workers before the
// event loop consumes it. The draw dominates a cluster run's CPU, the
// event loop is cheap and stateful, and the split of a block across
// workers is unobservable, so the output is byte-identical at any P.

import "sync"

// ExecBackend names one execution strategy for a single run. The zero
// value is Sequential.
type ExecBackend struct {
	shards int
}

// Sequential is the default single-goroutine execution backend.
var Sequential = ExecBackend{}

// Parallel returns the backend that pre-draws lookups on the given
// number of workers. Parallel(1) and values below 1 degrade to
// Sequential.
func Parallel(shards int) ExecBackend {
	return ExecBackend{shards: shards}
}

// Shards returns the backend's worker count (1 for Sequential).
func (b ExecBackend) Shards() int {
	if b.shards < 1 {
		return 1
	}
	return b.shards
}

// execBackend is the process-wide execution backend: the CLIs set it
// once at startup, the differential suite flips it around whole
// registry renders, and callers must not run simulations concurrently
// with different backends.
var execBackend = Sequential

// SetExecBackend overrides the execution backend and returns a restore
// func.
func SetExecBackend(b ExecBackend) (restore func()) {
	prev := execBackend
	execBackend = b
	return func() { execBackend = prev }
}

// execParts resolves the effective worker count for units items of
// work: never more workers than items (an idle worker is pure
// overhead).
func execParts(units int) int {
	p := execBackend.Shards()
	if p > units {
		p = units
	}
	if p < 1 {
		p = 1
	}
	return p
}

// runParts splits [0, n) into parts contiguous chunks and calls
// fn(lo, hi) for each on its own goroutine, the caller's included.
// Callers with parts == 1 run their work inline instead: fn escapes to
// the spawned goroutines, so every call allocates its closure.
func runParts(n, parts int, fn func(lo, hi int)) {
	chunk := (n + parts - 1) / parts
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		lo := p * chunk
		go func() {
			defer wg.Done()
			fn(lo, min(lo+chunk, n))
		}()
	}
	fn(0, min(chunk, n))
	wg.Wait()
}
