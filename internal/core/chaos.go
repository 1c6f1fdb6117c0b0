package core

// ChaosConfig seeds deliberate protocol bugs for the verify harness's
// mutation self-test (DESIGN.md Section 10). Each field reintroduces one
// bug class that the XHC design rules out; internal/verify asserts that
// its invariant checkers catch every one of them. A nil Config.Chaos (the
// default) leaves the protocol untouched.
type ChaosConfig struct {
	// SkipAck makes pure members (ranks that lead no group) skip
	// publishing their completion ack — in Barrier, their arrival signal —
	// so their leaders wait forever in the finalization (or gather) phase:
	// a termination bug, caught by the engine's deadlock detector.
	SkipAck bool

	// EarlyReady publishes availability before the work that backs it —
	// the store/publish reordering the single-writer flag ordering exists
	// to prevent. In Bcast/Scatter/Allgather the chunk or staged block is
	// announced before its copy lands; in the reduce paths a member marks
	// its whole slice done before reducing it; in Barrier leaders release
	// the subtree before gathering its arrivals. Caught by the
	// data-correctness check (or Barrier's ordering stamps).
	EarlyReady bool

	// SharedAckLine packs every member-owned ack flag of a group onto one
	// shared cache line, silently dropping the per-writer line placement
	// of Fig. 10. Each flag still has a single writer, so shm's per-flag
	// owner check passes — only the write-tracker's per-line discipline
	// catches it.
	SharedAckLine bool

	// AckRegression republishes a stale (rewound) cumulative ack counter
	// on the second and later operations. The shm layer itself rejects
	// the non-monotone store; caught as an engine failure.
	AckRegression bool

	// LostProgress makes the per-rank request helper drop a finished
	// non-blocking op on the floor: the body runs, but completion is never
	// published, so Test never reports done and Wait suspends forever —
	// the classic missing-progress bug. Caught by the engine's deadlock
	// detector.
	LostProgress bool

	// EarlyComplete publishes a non-blocking request's completion without
	// running the collective body at all — completion visible before the
	// data is. Every rank skips uniformly (no cross-rank hang), so the
	// caller's byte check deterministically sees its stale junk fill.
	// Caught by the per-request byte-exactness invariant.
	EarlyComplete bool

	// FuseCorrupt makes the fused-broadcast root shift each staged sub-op
	// left by one byte (proto.Fused), at any batch size for payloads of at
	// least two bytes. Caught by byte-exactness.
	FuseCorrupt bool
}

// chaos returns the active mutation set (the zero value when none).
func (c *Comm) chaos() ChaosConfig {
	if c.Cfg.Chaos == nil {
		return ChaosConfig{}
	}
	return *c.Cfg.Chaos
}
