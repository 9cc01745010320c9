// Package comm provides in-process collective communication for the
// functional training layer: N ranks (goroutines) synchronize gradients
// with all-reduce / all-gather primitives operating on real data.
//
// This substitutes for NCCL in the paper's testbed. Two all-reduce
// implementations are provided: a centralized deterministic sum (reference)
// and a bandwidth-optimal ring all-reduce (reduce-scatter + all-gather, the
// algorithm real training systems use). Both guarantee that every rank
// observes a bit-identical result, the property gradient-reuse
// checkpointing depends on (every worker persists the same differential).
package comm

import (
	"fmt"
	"sync"

	"lowdiff/internal/compress"
	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

// Group is a communicator over n ranks. All collective calls must be made
// by every rank (one goroutine per rank); calls rendezvous like MPI
// collectives. A Group is reusable across any number of sequential
// collectives but a single collective must not be issued twice
// concurrently by the same rank.
type Group struct {
	n    int
	pool *parallel.Pool
	mu   sync.Mutex
	cond *sync.Cond

	slots   []interface{}
	outs    [2][]interface{} // exchange results, alternating by generation
	out     []interface{}
	arrived int
	gen     uint64

	// ring links: ring[i] carries messages from rank i to rank (i+1)%n.
	ring []chan tensor.Vector
	// ringSt[i] is rank i's reusable ring all-reduce state.
	ringSt []ringRank
}

// ringRank is one rank's ring all-reduce state, reused across calls so a
// steady-state all-reduce allocates nothing. lens is read by the other
// ranks after the length rendezvous; every rank has finished reading it
// before the owner can return from the ring steps (each step waits on a
// message from the previous rank, so after n-1 steps every rank has
// passed its length check).
//
// A rank's messages rotate through three send buffers. With one-slot
// links a sender can only overwrite buffer k%3 after the send of message
// k+2 went through, which needs the receiver to have taken message k+1,
// which it does only after it finished adding message k. Two buffers
// would race: the send of k+1 needs only that message k was taken.
type ringRank struct {
	lens []int
	bufs [3]tensor.Vector
	next int
}

// NewGroup returns a communicator for n ranks. n must be positive.
func NewGroup(n int) (*Group, error) {
	return NewGroupPooled(n, nil)
}

// NewGroupPooled returns a communicator whose dense reductions (segment
// scatter-add, sparse union, post-merge scaling) are sharded over pool.
// Results stay bit-identical to the serial group: within every segment,
// ranks accumulate in rank order.
func NewGroupPooled(n int, pool *parallel.Pool) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: group size %d must be positive", n)
	}
	g := &Group{
		n: n, pool: pool, slots: make([]interface{}, n),
		outs:   [2][]interface{}{make([]interface{}, n), make([]interface{}, n)},
		ring:   make([]chan tensor.Vector, n),
		ringSt: make([]ringRank, n),
	}
	g.cond = sync.NewCond(&g.mu)
	for i := range g.ring {
		g.ring[i] = make(chan tensor.Vector, 1)
	}
	return g, nil
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.n }

// exchange is the rendezvous primitive: every rank deposits in and receives
// the slice of all ranks' deposits (indexed by rank). All ranks return
// together. The result stays valid until the caller's next-but-one
// exchange: results alternate between two buffers, and the buffer of
// generation k is rewritten only when every rank has entered k+2.
func (g *Group) exchange(rank int, in interface{}) []interface{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen := g.gen
	g.slots[rank] = in
	g.arrived++
	if g.arrived == g.n {
		g.arrived = 0
		g.out = g.outs[gen&1]
		copy(g.out, g.slots)
		g.gen++
		g.cond.Broadcast()
	} else {
		for gen == g.gen {
			g.cond.Wait()
		}
	}
	return g.out
}

// checkRank validates a rank argument.
func (g *Group) checkRank(rank int) error {
	if rank < 0 || rank >= g.n {
		return fmt.Errorf("comm: rank %d out of range [0,%d)", rank, g.n)
	}
	return nil
}

// Barrier blocks until all ranks have entered it.
func (g *Group) Barrier(rank int) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	g.exchange(rank, nil)
	return nil
}

// AllReduceSum replaces v on every rank with the elementwise sum of all
// ranks' v, accumulated in rank order so every rank computes a bit-identical
// result. Vectors must have equal length on all ranks.
func (g *Group) AllReduceSum(rank int, v tensor.Vector) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	all := g.exchange(rank, v)
	first := all[0].(tensor.Vector)
	for r := 1; r < g.n; r++ {
		if len(all[r].(tensor.Vector)) != len(first) {
			return fmt.Errorf("comm: allreduce length mismatch: rank %d has %d, rank 0 has %d",
				r, len(all[r].(tensor.Vector)), len(first))
		}
	}
	// Segment scatter-add: each shard owns [lo, hi) of the sum and adds the
	// ranks' segments in rank order, so the result is bit-identical to the
	// serial rank-order accumulation at any worker count.
	sum := tensor.New(len(first))
	vecs := make([]tensor.Vector, g.n)
	for r := 0; r < g.n; r++ {
		vecs[r] = all[r].(tensor.Vector)
	}
	g.pool.ForEach(len(first), func(_, lo, hi int) {
		for _, src := range vecs { // rank order
			for i := lo; i < hi; i++ {
				sum[i] += src[i]
			}
		}
	})
	// Every rank writes its own v only after computing the sum from the
	// snapshot; a barrier keeps writers from racing readers of the inputs.
	g.exchange(rank, nil)
	copy(v, sum)
	g.exchange(rank, nil)
	return nil
}

// AllReduceMean is AllReduceSum followed by division by the group size.
func (g *Group) AllReduceMean(rank int, v tensor.Vector) error {
	if err := g.AllReduceSum(rank, v); err != nil {
		return err
	}
	v.Scale(1 / float32(g.n))
	return nil
}

// RingAllReduceSum performs the bandwidth-optimal ring all-reduce in place
// on one or more vectors: a reduce-scatter phase (n-1 steps) followed by
// an all-gather phase (n-1 steps), each rank exchanging one message with
// its ring neighbours per step. Several vectors coalesce into one call:
// one length rendezvous, then each step's chunks of all vectors travel as
// one message. Each vector is chunked exactly as a call with that vector
// alone chunks it, so every element is summed in the same rank order and
// the result is bit-identical to one call per vector. Every rank must
// pass the same number of vectors with the same lengths; a mismatch fails
// on every rank. Every rank finishes with a bit-identical sum.
func (g *Group) RingAllReduceSum(rank int, vs ...tensor.Vector) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	if g.n == 1 {
		return nil
	}
	st := &g.ringSt[rank]
	st.lens = st.lens[:0]
	for _, v := range vs {
		st.lens = append(st.lens, len(v)) //lint:allow hotalloc reused across calls; grows only until it fits the largest vector count
	}
	// Length agreement check (one cheap rendezvous for all vectors).
	all := g.exchange(rank, st)
	if err := ringLensAgree(all); err != nil {
		// Every rank sees the same deposits and fails alike; the extra
		// rendezvous keeps each rank's lens alive until all have compared.
		g.exchange(rank, nil)
		return err
	}
	n := g.n
	next := g.ring[rank]         // we send here
	prev := g.ring[(rank+n-1)%n] // we receive here
	// Reduce-scatter: after step s, rank r holds the running sum of chunk
	// (r-s-1+n) mod n over s+2 contributors; after n-1 steps rank r owns
	// the fully reduced chunk (r+1) mod n.
	for s := 0; s < n-1; s++ {
		sendIdx := (rank - s + n) % n
		recvIdx := (rank - s - 1 + 2*n) % n
		next <- st.pack(vs, sendIdx, n) // transmit a copy, like a real NIC
		in := <-prev
		for _, v := range vs {
			c := ringChunk(v, recvIdx, n)
			if err := c.Add(in[:len(c)]); err != nil {
				return err
			}
			in = in[len(c):]
		}
	}
	// All-gather: circulate the reduced chunks around the ring.
	for s := 0; s < n-1; s++ {
		sendIdx := (rank + 1 - s + 2*n) % n
		recvIdx := (rank - s + 2*n) % n
		next <- st.pack(vs, sendIdx, n)
		in := <-prev
		for _, v := range vs {
			in = in[copy(ringChunk(v, recvIdx, n), in):]
		}
	}
	return nil
}

// ringLensAgree checks that every rank deposited the same vector lengths
// as rank 0.
func ringLensAgree(all []interface{}) error {
	want := all[0].(*ringRank).lens
	for r := 1; r < len(all); r++ {
		got := all[r].(*ringRank).lens
		if len(got) != len(want) {
			return fmt.Errorf("comm: ring allreduce count mismatch: rank %d has %d vectors, rank 0 has %d",
				r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("comm: ring allreduce length mismatch: vector %d: rank %d has %d, rank 0 has %d",
					i, r, got[i], want[i])
			}
		}
	}
	return nil
}

// pack copies chunk idx of every vector into the rank's next send buffer.
func (st *ringRank) pack(vs []tensor.Vector, idx, n int) tensor.Vector {
	k := st.next % len(st.bufs)
	st.next++
	buf := st.bufs[k][:0]
	for _, v := range vs {
		buf = append(buf, ringChunk(v, idx, n)...) //lint:allow hotalloc reused across calls; grows only until it fits the largest message
	}
	st.bufs[k] = buf
	return buf
}

// ringChunk returns chunk i of v split into n near-equal chunks, the
// layout of tensor.Vector.Chunks: the first len(v)%n chunks hold one
// extra element.
func ringChunk(v tensor.Vector, i, n int) tensor.Vector {
	base, rem := len(v)/n, len(v)%n
	lo := i*base + min(i, rem)
	hi := lo + base
	if i < rem {
		hi++
	}
	return v[lo:hi]
}

// AllGatherSparse gathers every rank's compressed gradient and returns the
// rank-order union-sum on every rank — the synchronization used with Top-K
// sparsification (the paper's Allgather path). The result is bit-identical
// on every rank and does not alias any input.
func (g *Group) AllGatherSparse(rank int, c *compress.Compressed) (*compress.Compressed, error) {
	if err := g.checkRank(rank); err != nil {
		return nil, err
	}
	all := g.exchange(rank, c)
	parts := make([]*compress.Compressed, g.n)
	for r := 0; r < g.n; r++ {
		p, ok := all[r].(*compress.Compressed)
		if !ok || p == nil {
			return nil, fmt.Errorf("comm: rank %d deposited no compressed gradient", r)
		}
		parts[r] = p
	}
	merged, err := compress.MergeWith(g.pool, parts...)
	if err != nil {
		return nil, err
	}
	// Average the sum so the synchronized gradient is the mean of worker
	// gradients, matching the data-parallel convention.
	inv := 1 / float32(g.n)
	vals := merged.Vals
	g.pool.ForEach(len(vals), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] *= inv
		}
	})
	g.exchange(rank, nil) // release inputs only after all ranks merged
	return merged, nil
}

// Broadcast copies root's vector into every rank's v. Lengths must match.
func (g *Group) Broadcast(rank, root int, v tensor.Vector) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	if err := g.checkRank(root); err != nil {
		return err
	}
	all := g.exchange(rank, v)
	src := all[root].(tensor.Vector)
	if len(src) != len(v) {
		return fmt.Errorf("comm: broadcast length mismatch: root has %d, rank %d has %d", len(src), rank, len(v))
	}
	if rank != root {
		copy(v, src)
	}
	g.exchange(rank, nil)
	return nil
}

// Gather returns, on every rank, the slice of all ranks' scalar deposits.
// It is a convenience for collecting per-worker metrics.
func (g *Group) Gather(rank int, value float64) ([]float64, error) {
	if err := g.checkRank(rank); err != nil {
		return nil, err
	}
	all := g.exchange(rank, value)
	out := make([]float64, g.n)
	for r := 0; r < g.n; r++ {
		out[r] = all[r].(float64)
	}
	return out, nil
}
