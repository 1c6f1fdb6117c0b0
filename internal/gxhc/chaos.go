package gxhc

// ChaosConfig seeds a deliberate synchronization bug for the verify
// harness's mutation self-test (DESIGN.md Section 10). A nil Config.Chaos
// (the default) leaves the protocol untouched.
type ChaosConfig struct {
	// StaleReady makes broadcast members trust the exposure and copy
	// without waiting for the published-bytes counter — the effect of
	// reading the counter without the release/acquire ordering the
	// single-writer discipline provides. Members copy bytes their leader
	// has not written yet; caught by the data-correctness check. Note the
	// mutant introduces a genuine data race, so the self-test must not
	// run it under the race detector (which would abort the process).
	StaleReady bool

	// LostProgress makes the request worker drop a completed non-blocking
	// op on the floor: the body runs, but completion is never published, so
	// Test never reports done and Wait blocks forever — the classic missing
	// progress bug. Caught by the concurrency runner's Test deadline.
	LostProgress bool

	// EarlyComplete publishes a non-blocking request's completion without
	// running the collective body at all — completion visible before the
	// data is. Every rank skips uniformly (no cross-rank hang, no data
	// race), so the caller's byte check deterministically sees its stale
	// junk fill. Caught by the per-request byte-exactness invariant.
	EarlyComplete bool

	// FuseCorrupt is core's FuseCorrupt: the fused root shifts each staged
	// sub-op left by one byte (proto.Fused). Caught by byte-exactness.
	FuseCorrupt bool

	// SkipResultPull makes every top-group allreduce reducer take the
	// sole-reducer shortcut — no wait on the top leader's ready counter, no
	// copy of the result outside its own slice — even when other reducers
	// own the rest of the vector. Each such reducer (and every rank it
	// leads) returns with its pre-op bytes there; caught by the
	// data-correctness check. The reducer reads and writes nothing it would
	// not touch anyway, so within one op the mutant is race-free.
	SkipResultPull bool
}
