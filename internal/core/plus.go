package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/compress"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// LowDiff+ (paper §5): gradient reuse without compression, coalesced
// gradient synchronization and snapshotting through an offload pool, a
// CPU-resident model replica, and asynchronous persistence.

// PlusOptions configures the LowDiff+ engine (paper §5). It is a thin view
// over the unified Options with a PlusSpec extension.
type PlusOptions struct {
	Spec    model.Spec
	Workers int

	Optimizer string // "adam" (default) or "sgd"
	LR        float64
	Momentum  float64

	// Store receives persisted full checkpoints from the CPU replica; nil
	// keeps checkpoints in memory only.
	Store storage.Store
	// PersistEvery persists the CPU replica every so many iterations
	// (default 10), following CheckFreq-style overlap.
	PersistEvery int
	QueueCap     int // layer-item queue bound (default: 4x layer count)
	// SnapshotWorkers sizes the offload thread pool P_s (Alg. 2): pool
	// workers copy each synchronized gradient to host memory and stream
	// its layers to the checkpointing process; the trainer waits on the
	// pool (H_s) before reusing its gradient buffer. Default 4.
	SnapshotWorkers int

	// Parallelism shards the dense data-plane loops (replica assembly,
	// checkpoint encode/decode) across that many pool workers; 0 or 1 is
	// serial. Bit-identical to serial at any setting (DESIGN.md §8).
	Parallelism int

	// Overlap enables the pipelined step schedule (DESIGN.md §11): the
	// trainer alternates between two gradient buffers and defers each
	// H_s wait by one step, so layer offloads for iteration i drain
	// while iteration i+1 computes; a sequencer re-establishes the
	// iteration-monotonic queue order the replica assembler requires.
	// Replica state and persisted checkpoints are bit-identical.
	Overlap bool

	Seed  uint64
	Noise float64 // default 0.05

	// Trace, when non-nil, records the step-phase timeline (per-layer
	// compute, per-iteration allgather and snapshot offload, replica
	// assembly, persists).
	// Nil disables tracing with zero overhead.
	Trace *trace.Recorder
	// Metrics, when non-nil, registers the engine's live instruments
	// (plus.*) for export through the obs endpoints. Nil disables it.
	Metrics *obs.Registry
	// Events, when non-nil, receives run lifecycle events (run start/end,
	// replica persists). Nil disables emission.
	Events *obs.EventLog
}

// PlusStats summarizes one PlusEngine.Run call.
type PlusStats struct {
	Iterations     int
	LayerSnapshots int64         // layer gradients offloaded to CPU
	SnapshotBytes  int64         // bytes copied GPU->CPU
	ReplicaSteps   int64         // CPU-replica optimizer steps
	Persists       int64         // full checkpoints written from the replica
	SnapshotTime   time.Duration // time spent in layer offload copies
	FinalLoss      float64
}

// PlusEngine is the functional LowDiff+ trainer. Workers train with dense
// (uncompressed) ring-all-reduce gradient synchronization, one coalesced
// all-reduce per iteration over every layer; the synchronized gradient is
// snapshotted to "CPU memory" in one copy (layers in reverse order, §5.1)
// and streamed layer by layer through the
// reusing queue to the checkpointing process, which maintains an always-up-to-date
// CPU-resident replica of the model state (§5.2) and persists it
// asynchronously. Software failures recover from the in-memory replica;
// hardware failures reload the last persisted checkpoint.
type PlusEngine struct {
	*Engine
}

// NewPlusEngine validates options and builds the engine over the unified
// core. The CPU replica is initialized as a deep copy of the (identical)
// worker state, mirroring the paper's copy.deepcopy() at spawn time.
func NewPlusEngine(opts PlusOptions) (*PlusEngine, error) {
	e, err := NewEngine(Options{
		Spec:        opts.Spec,
		Workers:     opts.Workers,
		Optimizer:   opts.Optimizer,
		LR:          opts.LR,
		Momentum:    opts.Momentum,
		Store:       opts.Store,
		QueueCap:    opts.QueueCap,
		Parallelism: opts.Parallelism,
		Overlap:     opts.Overlap,
		Seed:        opts.Seed,
		Noise:       opts.Noise,
		Trace:       opts.Trace,
		Metrics:     opts.Metrics,
		Events:      opts.Events,
		Plus: &PlusSpec{
			PersistEvery:    opts.PersistEvery,
			SnapshotWorkers: opts.SnapshotWorkers,
		},
	})
	if err != nil {
		return nil, err
	}
	return &PlusEngine{Engine: e}, nil
}

// Run trains iters iterations with layer-wise gradient reuse, per-iteration
// in-memory checkpointing, and asynchronous persistence every PersistEvery
// iterations.
func (e *PlusEngine) Run(iters int) (PlusStats, error) {
	st, err := e.Engine.Run(iters)
	return PlusStats{
		Iterations:     st.Iterations,
		LayerSnapshots: st.LayerSnapshots,
		SnapshotBytes:  st.SnapshotBytes,
		ReplicaSteps:   st.ReplicaSteps,
		Persists:       st.FullWrites,
		SnapshotTime:   st.SnapshotTime,
		FinalLoss:      st.FinalLoss,
	}, err
}

// ReplicaIter returns the iteration the CPU replica reflects.
func (e *PlusEngine) ReplicaIter() int64 { return e.rep.Iter() }

// PersistedIter returns the iteration of the last persisted checkpoint.
func (e *PlusEngine) PersistedIter() int64 { return e.rep.PersistedIter() }

// RecoverInMemory returns the CPU-resident replica state: the
// software-failure recovery path (§5.3), available without touching
// storage.
func (e *PlusEngine) RecoverInMemory() *State { return e.rep.State() }

// State is a recovered or snapshotted training state (mirrors
// recovery.State without importing it, to keep core free of a recovery
// dependency).
type State struct {
	Iter   int64
	Params tensor.Vector
	Opt    optim.State
}

// initPlus validates the LowDiff+ options and wires the plusTopology /
// replicaSnapshotter pair.
func (e *Engine) initPlus() error {
	opts := e.opts
	ps := opts.Plus
	if opts.Workers < 1 {
		return fmt.Errorf("core: %d workers; need at least 1", opts.Workers)
	}
	if ps.PersistEvery < 1 {
		return fmt.Errorf("core: PersistEvery %d must be >= 1", ps.PersistEvery)
	}
	if ps.SnapshotWorkers < 1 {
		return fmt.Errorf("core: SnapshotWorkers %d must be >= 1", ps.SnapshotWorkers)
	}
	if err := validateOverlap(opts); err != nil {
		return err
	}
	group, err := comm.NewGroupPooled(opts.Workers, e.pool)
	if err != nil {
		return err
	}
	e.group = group
	n := opts.Spec.NumParams()
	for w := 0; w < opts.Workers; w++ {
		p := model.NewParams(opts.Spec)
		p.InitUniform(opts.Seed + 1)
		e.params = append(e.params, p)
		o, err := newOptimizer(opts, n)
		if err != nil {
			return err
		}
		e.opts2 = append(e.opts2, o)
	}
	// CPU replica: deep copy of the initial state.
	ro, err := newOptimizer(opts, n)
	if err != nil {
		return err
	}
	rep := &plusReplica{params: e.params[0].Clone(), opt: ro}
	e.rep = rep
	e.tag = "plus"
	e.topo = &plusTopology{e: e, order: e.oracle.BackwardOrder()}
	e.snap = &replicaSnapshotter{e: e, rep: rep}
	return nil
}

// plusReplica is the CPU-resident replica (checkpointing process state).
type plusReplica struct {
	mu          sync.Mutex
	params      *model.Params
	opt         optim.Optimizer
	iter        int64
	persistIter int64 // iteration of the last persisted checkpoint
}

func (r *plusReplica) Iter() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.iter
}

func (r *plusReplica) PersistedIter() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persistIter
}

func (r *plusReplica) State() *State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &State{
		Iter:   r.iter,
		Params: r.params.Flat.Clone(),
		Opt:    r.opt.Snapshot(),
	}
}

func (r *plusReplica) persisted(iter int64) {
	r.mu.Lock()
	if iter > r.persistIter {
		r.persistIter = iter
	}
	r.mu.Unlock()
}

func (r *plusReplica) pendingFull() *checkpoint.Full {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.iter <= r.persistIter {
		return nil
	}
	return &checkpoint.Full{
		Iter:   r.iter,
		Params: r.params.Flat.Clone(),
		Opt:    r.opt.Snapshot(),
	}
}

func (r *plusReplica) restore(params tensor.Vector, st optim.State, iter int64) error {
	o, err := optim.FromState(st, len(params))
	if err != nil {
		return err
	}
	r.mu.Lock()
	copy(r.params.Flat, params)
	r.opt = o
	r.iter = iter
	r.persistIter = iter
	r.mu.Unlock()
	return nil
}

// snapJob is one iteration's hand-off to the offload pool.
type snapJob struct {
	iter int64
	src  tensor.Vector // the trainer's synchronized gradient buffer
	hs   *sync.WaitGroup
}

// hostCopy is one iteration's gradient in host memory. Its per-layer
// queue items are sub-slices of vals; once the assembler has consumed
// every one of them, the copy returns to the free list.
type hostCopy struct {
	vals  tensor.Vector
	grads []compress.Compressed // one identity payload per layer, backward order
	refs  atomic.Int32          // layer items not yet consumed
	free  *hostFreeList
}

// release marks one layer item consumed.
func (h *hostCopy) release() {
	if h.refs.Add(-1) == 0 {
		h.free.put(h)
	}
}

// hostFreeList recycles host copies, so the steady-state offload path
// allocates nothing.
type hostFreeList struct {
	mu   sync.Mutex
	list []*hostCopy
}

// maxFreeCopies bounds the free list. Steady state keeps about two
// iterations of copies in flight (one being assembled, one being copied
// under overlap); a burst beyond that, e.g. while the assembler clones
// the replica for a persist, allocates extra copies that go back to the
// garbage collector instead of pinning memory for the whole run.
const maxFreeCopies = 2

func (f *hostFreeList) put(h *hostCopy) {
	f.mu.Lock()
	if len(f.list) < maxFreeCopies {
		f.list = append(f.list, h)
	}
	f.mu.Unlock()
}

// get returns a free host copy, allocating one when every copy is still
// in flight.
func (f *hostFreeList) get(spec model.Spec, order []int) *hostCopy {
	f.mu.Lock()
	if n := len(f.list); n > 0 {
		h := f.list[n-1]
		f.list = f.list[:n-1]
		f.mu.Unlock()
		return h
	}
	f.mu.Unlock()
	h := &hostCopy{vals: tensor.New(spec.NumParams()), free: f}
	h.grads = make([]compress.Compressed, len(order))
	for i, v := range layerViews(spec, order, h.vals) {
		h.grads[i] = compress.Compressed{Codec: "identity", N: len(v), Vals: v}
	}
	return h
}

// layerViews returns the views of g's layers in the given order.
func layerViews(spec model.Spec, order []int, g tensor.Vector) []tensor.Vector {
	offsets := spec.LayerOffsets()
	out := make([]tensor.Vector, len(order))
	for i, l := range order {
		out[i] = g[offsets[l] : offsets[l]+spec.Layers[l].Size]
	}
	return out
}

// plusTopology runs Workers dense data-parallel ranks and owns the offload
// thread pool P_s (Alg. 2): a pool worker copies each iteration's
// synchronized gradient from the trainer's buffer to host memory in one
// copy and streams its layers into the reusing queue. The source slice
// stays valid until the trainer's next backward pass, and the trainer
// waits on hs before starting it.
type plusTopology struct {
	e      *Engine
	order  []int // backward order: reverse layer order
	free   hostFreeList
	snapCh chan snapJob
	poolWG sync.WaitGroup

	// Overlap schedule (DESIGN.md §11): with two iterations of offloads
	// in flight, pool workers can finish layers of iteration t+1 before
	// the last layers of iteration t. The sequencer re-serializes their
	// queue hand-offs into the iteration-monotonic order the replica
	// assembler requires; pool workers release the trainer's handle
	// (hs.Done) as soon as the host copy exists, before sequencing.
	seqCh chan Item
	seqWG sync.WaitGroup
}

func (p *plusTopology) ranks() int      { return p.e.opts.Workers }
func (p *plusTopology) rankKey() string { return "workers" }

func (p *plusTopology) begin(rc *runCtx) {
	e := p.e
	p.snapCh = make(chan snapJob, e.opts.Plus.SnapshotWorkers*2)
	if e.opts.Overlap {
		p.seqCh = make(chan Item, e.opts.Plus.SnapshotWorkers*2)
		p.seqWG.Add(1)
		go p.sequence(rc)
	}
	for i := 0; i < e.opts.Plus.SnapshotWorkers; i++ {
		p.poolWG.Add(1)
		go func() {
			defer p.poolWG.Done()
			for job := range p.snapCh {
				p.offload(rc, job)
			}
		}()
	}
}

// offload copies one iteration's gradient to host memory and hands its
// layers to the reusing queue (or, under overlap, to the sequencer).
func (p *plusTopology) offload(rc *runCtx, job snapJob) {
	rec := p.e.opts.Trace
	snapDone := rec.Begin1(trace.TrackSnapshot, trace.PhaseSnapshot, "iter", job.iter)
	h := p.free.get(p.e.opts.Spec, p.order)
	copy(h.vals, job.src)
	h.refs.Store(int32(len(p.order)))
	snapDone()
	if p.seqCh != nil {
		// Overlap: the host copy exists, so the trainer's buffer handle
		// can be released immediately; the sequencer takes over the
		// queue hand-off.
		job.hs.Done()
		for i, l := range p.order {
			p.seqCh <- Item{Iter: job.iter, Layer: l, Grad: &h.grads[i], host: h}
		}
		return
	}
	for i, l := range p.order {
		putDone := rec.Begin2(trace.TrackSnapshot, trace.PhaseQueueWait,
			"iter", job.iter, "layer", int64(l))
		err := rc.queue.Put(Item{Iter: job.iter, Layer: l, Grad: &h.grads[i], host: h})
		putDone()
		if err != nil {
			rc.errCh <- err
			break // the remaining layers would fail the same way
		}
	}
	job.hs.Done()
}

// sequence re-establishes iteration-monotonic queue order for the
// overlap schedule. Items for the current iteration are emitted in
// arrival order (the assembler scatters by layer, so intra-iteration
// order is free); items for later iterations are buffered until the
// current one has produced all of its layers. The emitted stream is
// therefore item-for-item identical to the sequential schedule's, which
// keeps the replica — and every persisted checkpoint — bit-identical.
func (p *plusTopology) sequence(rc *runCtx) {
	defer p.seqWG.Done()
	e := p.e
	rec := e.opts.Trace
	nLayers := len(e.opts.Spec.Layers)
	cur := rc.start + 1
	count := 0
	pending := make(map[int64][]Item)
	var spare [][]Item // drained pending slices, reused for later iterations
	broken := false
	emit := func(it Item) {
		if broken {
			return
		}
		putDone := rec.Begin2(trace.TrackOverlap, trace.PhaseQueueWait,
			"iter", it.Iter, "layer", int64(it.Layer))
		err := rc.queue.Put(it)
		putDone()
		if err != nil {
			rc.errCh <- err
			broken = true
			return
		}
		e.overlapSlices.Inc()
		count++
	}
	for it := range p.seqCh {
		if it.Iter == cur {
			emit(it)
		} else {
			buf, ok := pending[it.Iter]
			if !ok {
				if n := len(spare); n > 0 {
					buf, spare = spare[n-1], spare[:n-1]
				} else {
					buf = make([]Item, 0, nLayers) // an iteration never holds more
				}
			}
			pending[it.Iter] = append(buf, it)
		}
		for count == nLayers {
			e.overlapDeposits.Inc()
			cur++
			count = 0
			if buf, ok := pending[cur]; ok {
				delete(pending, cur)
				for _, b := range buf {
					emit(b)
				}
				clear(buf)
				spare = append(spare, buf[:0])
			}
		}
	}
}

func (p *plusTopology) end(*runCtx) {
	close(p.snapCh)
	p.poolWG.Wait() // all snapshots issued before the queue closes
	if p.seqCh != nil {
		close(p.seqCh)
		p.seqWG.Wait() // the sequencer flushes before the queue closes
		p.seqCh = nil
	}
}

func (p *plusTopology) registerMetrics(reg *obs.Registry) {
	if p.e.opts.Overlap {
		p.e.registerOverlapMetrics(reg)
	}
}

func (p *plusTopology) newRank(rc *runCtx, w int) rankRunner {
	e := p.e
	r := &plusRank{
		e:       e,
		topo:    p,
		w:       w,
		p:       e.params[w],
		o:       e.opts2[w],
		g:       tensor.New(e.opts.Spec.NumParams()),
		overlap: e.opts.Overlap,
	}
	r.views[0] = layerViews(e.opts.Spec, p.order, r.g)
	if r.overlap && w == 0 {
		r.galt = tensor.New(e.opts.Spec.NumParams())
		r.views[1] = layerViews(e.opts.Spec, p.order, r.galt)
	}
	return r
}

// plusRank is one dense data-parallel worker's per-iteration state.
type plusRank struct {
	e       *Engine
	topo    *plusTopology
	w       int
	p       *model.Params
	o       optim.Optimizer
	g       tensor.Vector
	galt    tensor.Vector      // overlap: second gradient buffer (odd iterations)
	views   [2][]tensor.Vector // per buffer: the layer views in backward order
	overlap bool
	hs      [2]sync.WaitGroup // H_s handles per in-flight buffer (overlap uses both)
}

func (r *plusRank) step(rc *runCtx, t int64) error {
	e, w := r.e, r.w
	tr := e.trace0(w)
	iterDone := tr.Begin1(trace.TrackTrain, trace.PhaseIteration, "iter", t)
	if w == 0 {
		e.live.Store(t)
	}
	// Backward pass in reverse layer order: each layer's gradient is
	// computed straight into the gradient buffer, then the whole gradient
	// synchronizes in one coalesced all-reduce (Alg. 2 sync threads) and
	// is snapshotted for reuse in one host copy.
	g, views := r.g, r.views[0]
	hs := &r.hs[0] // H_s: outstanding snapshot handles
	if r.overlap && w == 0 {
		// Pipelined schedule (DESIGN.md §11): alternate between two
		// gradient buffers and defer each H_s wait by one iteration —
		// before reusing buffer t%2 we only need the offloads of
		// iteration t-2 (its previous occupant) to have drained, so
		// iteration t-1's offload tail hides behind this compute.
		if t%2 != 0 {
			g, views = r.galt, r.views[1]
		}
		hs = &r.hs[t%2]
		waitDone := tr.Begin1(trace.TrackTrain, trace.PhaseQueueWait, "iter", t)
		e.snapTimer.Time(hs.Wait)
		waitDone()
	}
	for i, l := range r.topo.order {
		computeDone := tr.Begin2(trace.TrackTrain, trace.PhaseCompute, "iter", t, "layer", int64(l))
		if err := e.oracle.LayerGrad(r.p.Flat, w, int(t), l, views[i]); err != nil {
			return err
		}
		computeDone()
	}
	// One vector per layer: each layer is chunked across the ring as it
	// would be alone, which keeps every sum's rank order, and so the
	// result, bit-identical to per-layer synchronization.
	gatherDone := tr.Begin1(trace.TrackTrain, trace.PhaseAllGather, "iter", t)
	if err := e.group.RingAllReduceSum(w, views...); err != nil {
		return err
	}
	gatherDone()
	g.Scale(1 / float32(e.opts.Workers))
	if w == 0 {
		// Hand the gradient to the offload pool for its copy to host
		// memory.
		hs.Add(1)
		r.topo.snapCh <- snapJob{iter: t, src: g, hs: hs}
		// H_s.wait(): the gradient buffer may not be reused until the
		// snapshot has been taken. The overlap schedule already waited —
		// one iteration late — at the top of the step.
		if !r.overlap {
			waitDone := tr.Begin1(trace.TrackTrain, trace.PhaseQueueWait, "iter", t)
			e.snapTimer.Time(hs.Wait)
			waitDone()
		}
	}
	applyDone := tr.Begin1(trace.TrackTrain, trace.PhaseApply, "iter", t)
	err := r.o.Step(r.p.Flat, g)
	applyDone()
	iterDone()
	return err
}

// replicaSnapshotter is the LowDiff+ checkpointing process: it assembles
// layer gradients from the reusing queue, keeps the CPU replica in
// lock-step, and persists it asynchronously every PersistEvery iterations.
type replicaSnapshotter struct {
	e          *Engine
	rep        *plusReplica
	persistCh  chan *checkpoint.Full
	assembleWG sync.WaitGroup
	persistWG  sync.WaitGroup
}

func (s *replicaSnapshotter) begin(rc *runCtx) error {
	e := s.e
	q, err := NewReusingQueue(e.opts.QueueCap)
	if err != nil {
		return err
	}
	rc.queue = q
	s.persistCh = make(chan *checkpoint.Full, 2)
	s.assembleWG.Add(1)
	go s.assemble(rc)
	s.persistWG.Add(1)
	go s.persistLoop(rc)
	return nil
}

// initialFull persists the initial replica once so hardware-failure
// recovery has a base before the first periodic persist.
func (s *replicaSnapshotter) initialFull(rc *runCtx) error {
	if s.e.opts.Store == nil {
		return nil
	}
	r := s.rep
	s.persistCh <- &checkpoint.Full{
		Iter:   0,
		Params: r.params.Flat.Clone(),
		Opt:    r.opt.Snapshot(),
	}
	return nil
}

func (s *replicaSnapshotter) end(rc *runCtx) {
	rc.queue.Close()
	s.assembleWG.Wait() // the assembler drains the queue, then exits
	close(s.persistCh)
	s.persistWG.Wait() // the persister drains outstanding requests
}

func (s *replicaSnapshotter) runEndFields(stats *RunStats) map[string]any {
	return map[string]any{
		"iter": s.e.iter, "replica_steps": stats.ReplicaSteps, "persists": stats.FullWrites,
	}
}

func (s *replicaSnapshotter) registerMetrics(reg *obs.Registry) {
	e := s.e
	reg.FuncGauge("plus.replica_iter", func() float64 { return float64(s.rep.Iter()) })
	reg.FuncGauge("plus.persist_iter", func() float64 { return float64(s.rep.PersistedIter()) })
	reg.FuncCounter("plus.layer_snapshots", e.layerSnapshots.Value)
	reg.FuncCounter("plus.snapshot_bytes", e.snapshotBytes.Value)
	reg.FuncCounter("plus.replica_steps", e.replicaSteps.Value)
	reg.FuncCounter("plus.persists", e.fullWrites.Value)
	reg.FuncGauge("plus.snapshot_seconds", func() float64 { return e.snapTimer.Total().Seconds() })
}

// assemble is the checkpointing process: assemble layer gradients, keep the
// CPU replica in lock-step, request persists. After a failure it reports
// the error once and keeps draining the queue, so the offload pool — and
// the trainer waiting on it — never blocks on a full queue.
func (s *replicaSnapshotter) assemble(rc *runCtx) {
	defer s.assembleWG.Done()
	spec := s.e.opts.Spec
	a := &assembly{grad: tensor.New(spec.NumParams()), offsets: spec.LayerOffsets()}
	broken := false
	for {
		it, err := rc.queue.Get()
		if err != nil {
			return
		}
		if !broken {
			if err := s.absorb(a, it); err != nil {
				rc.errCh <- err
				broken = true
			}
		}
		if it.host != nil {
			it.host.release()
		}
	}
}

// assembly is the iteration the assembler is putting together.
type assembly struct {
	grad    tensor.Vector // scattered layer by layer
	offsets []int
	seen    int // layers absorbed so far
	iter    int64
}

// absorb scatters one layer item into the assembly and, once the
// iteration's gradient is complete, steps the CPU replica (§5.2).
func (s *replicaSnapshotter) absorb(a *assembly, it Item) error {
	e, r := s.e, s.rep
	spec := e.opts.Spec
	nLayers := len(spec.Layers)
	if it.Layer < 0 || it.Layer >= nLayers {
		return fmt.Errorf("core: plus checkpointer got layer %d", it.Layer)
	}
	if a.seen == 0 {
		a.iter = it.Iter
	} else if it.Iter != a.iter {
		return fmt.Errorf("core: plus checkpointer got iter %d while assembling %d", it.Iter, a.iter)
	}
	// Snapshot: the gradient already lives in host memory here (the
	// copy happened at enqueue, the offload thread's work); scatter it
	// into the assembly buffer.
	off := a.offsets[it.Layer]
	view := a.grad[off : off+spec.Layers[it.Layer].Size]
	if err := it.Grad.DecompressWith(e.pool, view); err != nil {
		return err
	}
	e.layerSnapshots.Inc()
	e.snapshotBytes.Add(it.Grad.Bytes())
	a.seen++
	if a.seen < nLayers {
		return nil
	}
	// Full gradient assembled: update the CPU replica (§5.2).
	a.seen = 0
	r.mu.Lock()
	if err := r.opt.Step(r.params.Flat, a.grad); err != nil {
		r.mu.Unlock()
		return err
	}
	r.iter = a.iter
	e.replicaSteps.Inc()
	var toPersist *checkpoint.Full
	if e.opts.Store != nil && a.iter%int64(e.opts.Plus.PersistEvery) == 0 {
		toPersist = &checkpoint.Full{
			Iter:   a.iter,
			Params: r.params.Flat.Clone(),
			Opt:    r.opt.Snapshot(),
		}
	}
	r.mu.Unlock()
	if toPersist != nil {
		s.persistCh <- toPersist
	}
	return nil
}

// persistLoop is the asynchronous persister, sharing the engine's full
// persistence path (retry ladder, fullWrites accounting, events).
func (s *replicaSnapshotter) persistLoop(rc *runCtx) {
	defer s.persistWG.Done()
	broken := false
	for f := range s.persistCh {
		if broken {
			continue // drain so the assembler never blocks on a dead sink
		}
		if err := s.e.persistFull(f); err != nil {
			rc.errCh <- err
			broken = true
		}
	}
}
