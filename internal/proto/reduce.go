package proto

// Acc names the group's accumulator in AttachRed.
const Acc = -1

// Reduction is a backend's reduction tuning.
type Reduction struct {
	// MinSlice and CICOMinSlice are the least share, in bytes, one reducer
	// takes on each path, so with few elements only one member in each
	// group reduces (paper Section IV-B step 2a).
	MinSlice, CICOMinSlice int
	// SoleWrites enables the sole-reducer rule: an allreduce's top-group
	// reducer whose slice is the whole vector copies each folded chunk of
	// the result into its own rbuf, and never waits for or pulls it from
	// the top leader.
	SoleWrites bool
}

// Slice is reducer i's byte range [lo, hi) of an n-byte vector of es-byte
// elements split among k reducers that take at least minSlice bytes each:
// the first ceil(n/minSlice) reducers (at least one, at most k) split the
// elements as evenly as possible, in order, and the rest get the empty
// range at n.
func Slice(n, es, minSlice, k, i int) (lo, hi int) {
	active := min(max((n+minSlice-1)/minSlice, 1), k)
	if i >= active {
		return n, n
	}
	elems := n / es
	per, rem := elems/active, elems%active
	lo = (i*per + min(i, rem)) * es
	hi = lo + per*es
	if i < rem {
		hi += es
	}
	return lo, hi
}

// redState is one rank's private reduction state on one of its roles.
type redState struct {
	seen  []uint64 // led group: each reducer's bytes seen folded this op
	ready []uint64 // pull group: each slot's last RedReady read (a leader's own slice)
	want  []uint64 // WaitSlots targets, per slot
	// A led group's folded prefix this op, and how much of it is published.
	prefix, published int
}

// initRed allocates the plan's reduction mirrors.
func (p *Plan[G]) initRed(levels int) {
	p.redCum = make([]uint64, levels)
	for i := range p.Lead {
		r, k := &p.Lead[i], len(p.Lead[i].Reducers)
		r.red.seen, r.red.want = make([]uint64, k), make([]uint64, k+1)
	}
	if r, k := &p.Pull, len(p.Pull.Reducers)+1; p.HasPull {
		r.red.want, r.red.ready = make([]uint64, k), make([]uint64, k)
	}
}

// at is the rank's role at a level it takes part in: it leads levels 0
// to len(Lead)-1 and pulls at the next.
func (p *Plan[G]) at(level int) *Role[G] {
	if level < len(p.Lead) {
		return &p.Lead[level]
	}
	return &p.Pull
}

// redOp is one reduction's arguments.
type redOp[B any] struct {
	seq             uint64
	sbuf, acc, rbuf B
	n, es, min      int // min: the path's least slice
	bcast, sole     bool
}

func (o *redOp[B]) slice(k, i int) (int, int) { return Slice(o.n, o.es, o.min, k, i) }

// grain is the fold granule at a level: the pull chunk, in whole elements.
func (o *redOp[B]) grain(chunk int) int { return max(chunk/o.es*o.es, o.es) }

// contrib is a rank's contribution at a level: sbuf at the leaves, its
// accumulator above.
func (o *redOp[B]) contrib(level int) B {
	if level == 0 {
		return o.sbuf
	}
	return o.acc
}

// soleAt reports whether a reducer holding [lo, hi) takes the
// sole-reducer rule (Reduction.SoleWrites); top says its pull group is
// the top group.
func (o *redOp[B]) soleAt(top bool, lo, hi int, mut *Chaos) bool {
	return o.bcast && o.sole && top && (lo == 0 && hi == o.n || mut.SkipResultPull)
}

// fill sets every WaitSlots target to v.
func fill(want []uint64, v uint64) {
	for s := range want {
		want[s] = v
	}
}

// Allreduce reduces the n bytes (es-byte elements) of every rank's sbuf
// toward the plan's root, the paper's Section IV-B: a hierarchical,
// index-partitioned reduction overlapped with a pipelined broadcast of the
// result into every rank's rbuf. With bcast false it is the rooted Reduce:
// the result stays in the root's rbuf, which is then also its acc. acc is
// a leader's accumulator (its rbuf, or scratch at a rooted reduce's other
// leaders). Vectors up to CICOMax take the CICO path, and an op of n == 0
// only acks.
func Allreduce[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, cum []uint64, sbuf, acc, rbuf B, n, es int, bcast bool) {
	if n == 0 {
		AckPhase(m, p, seq)
		return
	}
	rc := m.Reduction()
	o := redOp[B]{seq: seq, sbuf: sbuf, acc: acc, rbuf: rbuf, n: n, es: es,
		min: rc.MinSlice, bcast: bcast, sole: rc.SoleWrites}
	if n <= m.CICOMax() {
		o.min = rc.CICOMinSlice
		cicoAllreduce(m, p, cum, &o)
	} else {
		exposeRed(m, p, &o)
		if len(p.Lead) > 0 {
			leaderLoop(m, p, cum, &o)
		} else if !memberSlice(m, p, &o) && bcast {
			Pull(m, p, seq, cum, rbuf, 0, n)
		}
	}
	Advance(cum, uint64(n))
	Advance(p.redCum, uint64(n))
	AckPhase(m, p, seq)
	if !bcast && p.HasPull {
		// A rooted reduce has no result broadcast to order a member's
		// return after the co-reducers that read its contribution (sbuf,
		// or scratch): hold until every co-reducer of the pull group has
		// acked. The leader only reads contributions before it acks.
		r := &p.Pull
		clear(r.red.want)
		for _, s := range r.Reducers {
			if s != r.Slot {
				r.red.want[s] = seq
			}
		}
		m.WaitSlots(r, Ack, r.red.want)
		m.Mark(-1, PhaseAck, 0)
	}
}

// exposeRed is the single-copy path's first step: every rank exposes its
// contribution at its pull level, a leader its accumulator and its
// contribution to each group it leads. A leaf contribution (sbuf) is
// ready at once; one above is published as the group below folds it.
func exposeRed[M Mem[G, B], G, B any](m M, p *Plan[G], o *redOp[B]) {
	if p.HasPull {
		r := &p.Pull
		m.Contribute(r, o.contrib(r.Level), false)
		m.Set(r, RedExp, o.seq)
		if r.Level == 0 {
			m.Set(r, RedReady, p.redCum[0]+uint64(o.n))
		}
	}
	for i := range p.Lead {
		r := &p.Lead[i]
		m.Contribute(r, o.acc, true)
		m.Set(r, AccExp, o.seq)
		m.Contribute(r, o.contrib(r.Level), false)
		m.Set(r, RedExp, o.seq)
		if r.Level == 0 {
			m.Set(r, RedReady, p.redCum[0]+uint64(o.n))
		}
	}
	m.Mark(-1, PhaseExpose, 0)
}

// memberSlice is a pure member's share of its group's reduction: attach
// the accumulator and every contribution, then fold the slice chunk by
// chunk as the members' RedReady counters allow, publishing each chunk on
// RedDone. It reports whether the rank took the sole-reducer rule and so
// already holds the result.
func memberSlice[M Mem[G, B], G, B any](m M, p *Plan[G], o *redOp[B]) bool {
	r := &p.Pull
	lo, hi := o.slice(len(r.Reducers), r.Red)
	mut := m.Chaos()
	sole := o.soleAt(r.Level == p.Top.Level, lo, hi, mut)
	base := p.redCum[r.Level] // RedDone counts from the level's RedReady
	if lo == hi {
		m.Set(r, RedDone, base)
		m.Mark(r.Level, PhaseReduceSlice, 0)
		return sole
	}
	if mut.EarlyReady {
		// Mutation: the whole slice is published as folded before any of
		// it is; the leader forwards (or the root keeps) unreduced bytes.
		m.Set(r, RedDone, base+uint64(hi-lo))
	}
	m.WaitGE(r, AccExp, o.seq)
	m.MarkFrom(r.Level, PhaseFlagWait, 0, r.Leader)
	acc := m.AttachRed(r, Acc)
	for s := range r.red.want {
		m.WaitSlot(r, RedExp, s, o.seq)
		m.AttachRed(r, s)
	}
	m.Mark(r.Level, PhaseExpose, 0)
	chunk := o.grain(m.Chunk(r.Level))
	for cur := lo; cur < hi; {
		step := min(chunk, hi-cur)
		fill(r.red.want, base+uint64(cur+step))
		m.WaitSlots(r, RedReady, r.red.want)
		m.Mark(r.Level, PhaseFlagWait, 0)
		m.Fold(r, cur, step, false)
		if sole {
			m.Copy(o.rbuf, cur, acc, cur, step)
		}
		cur += step
		if !mut.EarlyReady {
			m.Set(r, RedDone, base+uint64(cur-lo))
		}
		m.Mark(r.Level, PhaseReduceSlice, int64(step))
	}
	return sole
}

// need is a progress-loop pass's first unmet need: member slot s's flag f
// in r's group reaching v.
type need[G any] struct {
	r *Role[G]
	f Flag
	s int
	v uint64
}

func (nd *need[G]) note(r *Role[G], f Flag, s int, v uint64) {
	if nd.r == nil {
		*nd = need[G]{r, f, s, v}
	}
}

// leaderLoop interleaves every role a leader has in a single-copy
// reduction in one polling loop, the way the paper's leaders operate: it
// monitors its led groups' RedDone counters and publishes each group's
// folded prefix upward (as its RedReady one level up, or at the top as
// the result broadcast's ready counter), folds its own slice at its pull
// level without blocking, and pulls and forwards the result. The roles
// run bottom-up, so a pass's first unmet need is always another rank's
// write (Stall).
func leaderLoop[M Mem[G, B], G, B any](m M, p *Plan[G], cum []uint64, o *redOp[B]) {
	n, seq, lead := o.n, o.seq, p.Lead
	for i := range lead {
		st := &lead[i].red
		st.prefix, st.published = 0, 0
		clear(st.seen)
	}
	// The own slice at the pull level.
	var (
		lo, hi, cur    int
		attached, sole bool
		acc            B
	)
	pl := p.PullLevel()
	if p.HasPull {
		r := &p.Pull
		lo, hi = o.slice(len(r.Reducers), r.Red)
		cur = lo
		sole = o.soleAt(pl == p.Top.Level, lo, hi, m.Chaos())
		if lo == hi {
			m.Set(r, RedDone, p.redCum[pl])
		}
		clear(r.red.ready)
	}
	// The result: leaders pull it from their parent and forward it as in
	// Bcast; the root's rbuf is its accumulator, announced by its top
	// group's monitor.
	var bcSrc B
	bcSoff, bcCopied, bcAttached := 0, 0, false
	if o.bcast {
		for i := range lead {
			m.Expose(&lead[i], o.rbuf, 0, 0)
			m.Set(&lead[i], Exp, seq)
		}
	}
	// Some rank pulls the result as the root folds it, except in a rooted
	// reduce and in a 2-rank allreduce under the sole-reducer rule.
	pulled := o.bcast && (!o.sole || p.N > 2)
	for {
		progressed, done := false, true
		// A pass's segment is attributed to its dominant activity:
		// folding, forwarding, or (otherwise) flag polling.
		reduced, copied := 0, 0
		var nd need[G]

		for li := range lead {
			r := &lead[li]
			st := &r.red
			if st.prefix >= n {
				continue
			}
			switch k := len(r.Reducers); {
			case k == 0 && r.Level == 0:
				// A group of one: its accumulator takes the leader's own
				// contribution, a copy of sbuf at level 0, else the
				// accumulator itself, folded as far as the level below.
				m.Copy(o.acc, 0, o.sbuf, 0, n)
				st.prefix = n
				progressed = true
				reduced += n
			case k == 0:
				st.prefix = lead[li-1].red.published
			default:
				// The folded prefix runs across the reducers' ordered slices.
				// A stall waits for the first unfinished reducer's next
				// chunk if a rank acts on it, else for its whole slice.
				prefix, open := 0, true
				for j, s := range r.Reducers {
					l0, h0 := o.slice(k, j)
					sz := uint64(h0 - l0)
					if v, base := st.seen[j], p.redCum[r.Level]; v < sz {
						if v = m.Load(r, RedDone, s); v > base && min(v-base, sz) != st.seen[j] {
							st.seen[j], progressed = min(v-base, sz), true
						}
					}
					if open {
						prefix = l0 + int(st.seen[j])
						if open = st.seen[j] >= sz; open {
							prefix = h0
						} else if r.Level < p.Top.Level || pulled {
							nd.note(r, RedDone, s, p.redCum[r.Level]+min(st.seen[j]+uint64(o.grain(m.Chunk(r.Level))), sz))
						} else {
							nd.note(r, RedDone, s, p.redCum[r.Level]+sz)
						}
					}
				}
				st.prefix = min(prefix, n)
			}
			if st.prefix > st.published {
				st.published = st.prefix
				progressed = true
				if r.Level < p.Top.Level {
					m.Set(p.at(r.Level+1), RedReady, p.redCum[r.Level+1]+uint64(st.published))
				} else if o.bcast {
					Announce(m, p, cum, uint64(st.published))
				}
			}
			if st.prefix < n {
				done = false
			}
		}

		if cur < hi {
			done = false
			r := &p.Pull
			if !attached {
				if m.Load(r, AccExp, 0) < seq {
					nd.note(r, AccExp, 0, seq)
				} else {
					exposed := true
					for s := range r.red.ready {
						if m.Load(r, RedExp, s) < seq {
							nd.note(r, RedExp, s, seq)
							exposed = false
							break
						}
					}
					if exposed {
						acc = m.AttachRed(r, Acc)
						for s := range r.red.ready {
							m.AttachRed(r, s)
						}
						attached, progressed = true, true
					}
				}
			}
			if attached {
				chunk := o.grain(m.Chunk(pl))
				for cur < hi {
					step := min(chunk, hi-cur)
					want := p.redCum[pl] + uint64(cur+step)
					ok := true
					for s, got := range r.red.ready {
						if got < want {
							got = m.Load(r, RedReady, s)
							r.red.ready[s] = got
						}
						if got < want {
							nd.note(r, RedReady, s, want)
							ok = false
							break
						}
					}
					if !ok {
						break
					}
					m.Fold(r, cur, step, false)
					if sole {
						m.Copy(o.rbuf, cur, acc, cur, step)
					}
					cur += step
					m.Set(r, RedDone, p.redCum[pl]+uint64(cur-lo))
					progressed = true
					reduced += step
				}
			}
		}
		if sole && bcCopied < n && cur >= hi && lead[len(lead)-1].red.published >= n {
			// The rule's rank holds all it writes of the result once its
			// slice and every group below it are folded; it forwards it.
			bcCopied = n
			Announce(m, p, cum, uint64(n))
		}

		if o.bcast && p.HasPull && !sole && bcCopied < n {
			done = false
			r := &p.Pull
			if !bcAttached {
				if m.Load(r, Exp, 0) >= seq {
					bcSrc, bcSoff, _ = m.Attach(r)
					bcAttached, progressed = true, true
				} else {
					nd.note(r, Exp, 0, seq)
				}
			}
			if bcAttached {
				base, chunk := cum[pl], m.Chunk(pl)
				if avail := min(int(m.Load(r, Ready, 0)-base), n); avail > bcCopied {
					for bcCopied < avail {
						take := min(chunk, avail-bcCopied)
						m.Copy(o.rbuf, bcCopied, bcSrc, bcSoff+bcCopied, take)
						bcCopied += take
						copied += take
						Announce(m, p, cum, uint64(bcCopied))
					}
					progressed = true
					if bcCopied >= n {
						m.Release(r)
						m.Pull(r.Leader, n)
					}
				} else {
					nd.note(r, Ready, 0, base+uint64(bcCopied+min(chunk, n-bcCopied)))
				}
			}
		}

		switch {
		case reduced > 0:
			m.Mark(pl, PhaseReduceSlice, int64(reduced))
		case copied > 0:
			m.Mark(pl, PhaseChunkCopy, int64(copied))
		default:
			m.Mark(-1, PhaseFlagWait, 0)
		}
		if done {
			return
		}
		if !progressed {
			m.Stall(nd.r, nd.f, nd.s, nd.v)
			m.Mark(-1, PhaseFlagWait, 0)
		}
	}
}

// cicoAllreduce is the small-vector path (paper Section IV-C): every rank
// stages its sbuf in its CICO slot, the reducers fold in place into the
// leader's slot (which holds the leader's own contribution) one level at a
// time, and the result comes back down through the CICO slots as in
// Bcast's CICO path.
func cicoAllreduce[M Mem[G, B], G, B any](m M, p *Plan[G], cum []uint64, o *redOp[B]) {
	n := o.n
	own, half := m.CICO(p.Rank)
	slot := int(o.seq) % 2 * half
	m.Copy(own, slot, o.sbuf, 0, n)
	m.Set(p.at(0), RedReady, p.redCum[0]+uint64(n))
	m.Mark(0, PhaseChunkCopy, int64(n))

	// Bottom-up: each led group's result lands in this rank's slot once
	// its active reducers are done; it is the contribution one level up.
	for i := range p.Lead {
		r := &p.Lead[i]
		clear(r.red.want)
		for j, s := range r.Reducers {
			if lo, hi := o.slice(len(r.Reducers), j); hi > lo {
				r.red.want[s] = p.redCum[r.Level] + uint64(hi-lo)
			}
		}
		m.WaitSlots(r, RedDone, r.red.want)
		m.Mark(r.Level, PhaseFlagWait, 0)
		if r.Level < p.Top.Level {
			m.Set(p.at(r.Level+1), RedReady, p.redCum[r.Level+1]+uint64(n))
		}
	}

	lo, hi, sole := 0, 0, false
	if p.HasPull {
		r := &p.Pull
		lo, hi = o.slice(len(r.Reducers), r.Red)
		mut := m.Chaos()
		sole = o.soleAt(r.Level == p.Top.Level, lo, hi, mut)
		if hi > lo {
			if mut.EarlyReady {
				// Mutation: the slice is announced as folded before it is.
				m.Set(r, RedDone, p.redCum[r.Level]+uint64(hi-lo))
			}
			fill(r.red.want, p.redCum[r.Level]+uint64(n))
			m.WaitSlots(r, RedReady, r.red.want)
			m.Mark(r.Level, PhaseFlagWait, 0)
			m.Fold(r, slot+lo, hi-lo, true)
			if sole {
				src, _ := m.CICO(r.Leader)
				m.Copy(o.rbuf, lo, src, slot+lo, hi-lo)
			}
			if !mut.EarlyReady {
				m.Set(r, RedDone, p.redCum[r.Level]+uint64(hi-lo))
			}
			m.Mark(r.Level, PhaseReduceSlice, int64(hi-lo))
		}
	}

	if !p.HasPull {
		// The root drains its slot into rbuf and, for an allreduce,
		// announces the result.
		m.Copy(o.rbuf, 0, own, slot, n)
		if o.bcast {
			Announce(m, p, cum, uint64(n))
		}
		m.Mark(-1, PhaseChunkCopy, int64(n))
		return
	}
	if !o.bcast {
		return
	}
	r := &p.Pull
	src, _ := m.CICO(r.Leader)
	fwd := len(p.Lead) > 0
	if sole {
		// The rule: the rank folded its share of the result itself.
		if fwd {
			m.Copy(own, slot+lo, src, slot+lo, hi-lo)
			Announce(m, p, cum, uint64(n))
			m.Mark(r.Level, PhaseChunkCopy, int64(hi-lo))
		}
		return
	}
	m.WaitGE(r, Ready, cum[r.Level]+uint64(n))
	m.MarkFrom(r.Level, PhaseFlagWait, 0, r.Leader)
	m.Copy(o.rbuf, 0, src, slot, n)
	if fwd {
		m.Copy(own, slot, src, slot, n)
		Announce(m, p, cum, uint64(n))
	}
	m.Mark(r.Level, PhaseChunkCopy, int64(n))
	m.Pull(r.Leader, n)
}
