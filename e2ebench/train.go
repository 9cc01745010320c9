package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"lowdiff/internal/core"
	"lowdiff/internal/obs"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
)

const (
	setups     = 3  // set-ups per run; setup_s is their median
	minPairs   = 10 // block pairs a run makes however short --seconds is
	restoresPB = 3  // serial+parallel restore pairs after each checkpointed block
)

// trainCase is one training workload.
type trainCase struct {
	block  int // iterations per timed block: whole full-checkpoint periods
	warmup int // set-up iterations; also offsets block ends from full checkpoints
	// options returns the checkpointed engine's options, without a Store,
	// and the W/O CKPT twin's.
	options func(b *bench) (ckpt, twin core.Options)
	// pool opens the storage of one set-up under dir.
	pool func(b *bench, dir string) (storePool, error)
}

// storePool hands out the store stacks of one set-up.
type storePool interface {
	// open returns the store of one checkpointed engine; timed wraps it in
	// timing wrappers for the traced run.
	open(name string, timed bool) (*stack, error)
	close() error
}

// stack is the storage behind one checkpointed engine.
type stack struct {
	store  storage.Store   // handed to the engine; restores read it too
	stats  *storage.Stats  // byte accounting of an untimed stack
	timed  *timedStore     // client-side timing wrapper of a timed stack
	daemon *daemonSide     // plus-pool: the tenant's side of the daemon
	verify []storage.Store // stores recovery.Verify checks after the run
}

// trainEnv is one set-up of a training workload.
type trainEnv struct {
	dir  string
	pool storePool
	ck   *core.Engine // the measured checkpointed engine, untraced
	ckSt *stack
	// other is the W/O CKPT twin in the untraced run and the traced
	// checkpointed engine in the traced run.
	other   *core.Engine
	otherSt *stack // traced run only
	rec     *trace.Recorder
	reg     *obs.Registry
}

func (e *trainEnv) close() error {
	var err error
	if e.pool != nil {
		err = e.pool.close()
	}
	return errors.Join(err, os.RemoveAll(e.dir))
}

func (e *trainEnv) stacks() []*stack {
	if e.otherSt == nil {
		return []*stack{e.ckSt}
	}
	return []*stack{e.ckSt, e.otherSt}
}

// runTrain sets the workload up, measures it, and verifies its stores.
func (b *bench) runTrain(tc trainCase) error {
	env, err := setupRepeated(b, setups, func() (*trainEnv, error) { return b.setupTrain(tc) })
	if err != nil {
		return err
	}
	defer env.close()
	if b.traced {
		err = b.traceTrain(tc, env)
	} else {
		err = b.measureTrain(tc, env)
	}
	if err != nil {
		return err
	}
	for _, st := range env.stacks() {
		b.verify(st.verify...)
	}
	return nil
}

func (b *bench) setupTrain(tc trainCase) (env *trainEnv, err error) {
	env = &trainEnv{}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.dir, err = os.MkdirTemp(b.dir, "setup-"); err != nil {
		return env, err
	}
	if env.pool, err = tc.pool(b, env.dir); err != nil {
		return env, err
	}
	ckOpts, twinOpts := tc.options(b)
	if env.ckSt, err = env.pool.open("job", false); err != nil {
		return env, err
	}
	ckOpts.Store = env.ckSt.store
	if env.ck, err = core.NewEngine(ckOpts); err != nil {
		return env, err
	}
	if b.traced {
		if env.otherSt, err = env.pool.open("traced", true); err != nil {
			return env, err
		}
		o := ckOpts
		o.Store, o.Trace, o.Metrics = env.otherSt.store, trace.New(), obs.New()
		// A ring well above one block's spans: blocks are folded as they end.
		o.Trace.SetCap(1 << 16)
		env.rec, env.reg = o.Trace, o.Metrics
		env.other, err = core.NewEngine(o)
	} else {
		env.other, err = core.NewEngine(twinOpts)
	}
	if err != nil {
		return env, err
	}
	for _, e := range []*core.Engine{env.ck, env.other} {
		if _, _, err = runBlock(e, tc.warmup); err != nil {
			return env, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// runBlock trains n iterations and flushes the checkpointer, so the block
// pays for every checkpoint of its iterations.
func runBlock(e *core.Engine, n int) (span, core.RunStats, error) {
	var stats core.RunStats
	sp, err := measure(func() (err error) {
		if stats, err = e.Run(n); err != nil {
			return err
		}
		return e.Flush()
	})
	return sp, stats, err
}

// pairBlocks runs one block on each engine, a first when aFirst.
func pairBlocks(a, b *core.Engine, n int, aFirst bool) (sa, sb span, err error) {
	var errA, errB error
	if aFirst {
		sa, _, errA = runBlock(a, n)
		sb, _, errB = runBlock(b, n)
	} else {
		sb, _, errB = runBlock(b, n)
		sa, _, errA = runBlock(a, n)
	}
	return sa, sb, errors.Join(errA, errB)
}

func liveOf(e *core.Engine) liveState {
	return liveState{iter: e.Iter(), params: e.Params().Clone(), opt: e.OptState()}
}

// sameTrajectory fails unless checkpointing left the training trajectory
// untouched: the checkpointed engine and its twin hold identical bits.
func sameTrajectory(ck, twin *core.Engine) error {
	if ck.Iter() != twin.Iter() || !ck.Params().Equal(twin.Params()) {
		d, _ := ck.Params().MaxAbsDiff(twin.Params())
		return fmt.Errorf("checkpointed engine at iteration %d diverged from its W/O CKPT twin at %d (max |err| %g)",
			ck.Iter(), twin.Iter(), d)
	}
	return nil
}

// measureTrain is the untraced run: checkpointed and twin blocks
// interleaved, alternating which goes first, with restores of the
// checkpointed engine's store after every pair.
func (b *bench) measureTrain(tc trainCase, env *trainEnv) error {
	var ratios, cpu samples
	var rs restoreStats
	iters := 0
	bytes0 := env.ckSt.stats.WrittenBytes()
	start := time.Now()
	for p := 0; p < minPairs || time.Since(start) < b.seconds; p++ {
		ck, tw, err := pairBlocks(env.ck, env.other, tc.block, p%2 == 0)
		if !b.rep.check("train block pair", err) {
			return err
		}
		ratios = append(ratios, float64(ck.wall)/float64(tw.wall))
		cpu = append(cpu, ms(ck.cpu)/float64(tc.block))
		iters += tc.block
		b.rep.check("twin parity", sameTrajectory(env.ck, env.other))
		live := liveOf(env.ck)
		for k := 0; k < restoresPB; k++ {
			b.restorePair(env.ckSt.store, live, (p+k)%2 == 0, &rs)
		}
	}
	b.rep.set("ckpt_overhead_ratio", ratios.median(), len(ratios))
	b.rep.set("cpu_ms_per_iter", cpu.median(), len(cpu))
	b.rep.set("ckpt_bytes_per_iter", float64(env.ckSt.stats.WrittenBytes()-bytes0)/float64(iters), iters)
	rs.report(b.rep)
	return nil
}

// traceTrain is the traced run: blocks of the untraced checkpointed engine
// interleaved with blocks of a traced twin of it (trace recorder, metrics
// registry and timing store wrappers on); per-layer metrics come from the
// traced engine, trace.overhead_ratio from the pairs.
func (b *bench) traceTrain(tc trainCase, env *trainEnv) error {
	var prof profileAcc
	prof.skip(env.rec) // the set-up's spans
	st := env.otherSt
	st.timed.take()
	var base daemonCounters
	if st.daemon != nil {
		st.daemon.backing.take()
		base = st.daemon.counters()
	}
	dispatches0 := counter(env.reg, "parallel.dispatches")

	var overhead samples
	var writes, reads, backing opLog
	var rs restoreStats
	var bd breakdown
	var al allocs
	var plainWall time.Duration
	var blocked int64
	iters := 0
	start := time.Now()
	for p := 0; p < minPairs || time.Since(start) < b.seconds; p++ {
		var plain, traced span
		var stats core.RunStats
		var errP, errT error
		runPlain := func() {
			plain, _, errP = runBlock(env.ck, tc.block)
			al.add(plain.alloc)
		}
		runTraced := func() { traced, stats, errT = runBlock(env.other, tc.block) }
		if p%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		if err := errors.Join(errP, errT); !b.rep.check("train block pair", err) {
			return err
		}
		overhead = append(overhead, float64(traced.wall)/float64(plain.wall))
		plainWall += plain.wall
		blocked += stats.BlockedPuts
		iters += tc.block
		prof.add(env.rec)
		writes.add(st.timed.take())
		if st.daemon != nil {
			backing.add(st.daemon.backing.take())
		}

		live := liveOf(env.other)
		b.restorePair(st.store, live, p%2 == 0, &rs)
		b.decompose(st.timed, &bd)
		reads.add(st.timed.take())
		if st.daemon != nil {
			st.daemon.backing.take() // the daemon's side of the restores
		}
	}

	prof.report(b.rep, iters)
	writes.reportWrites(b.rep, iters)
	reads.reportReads(b.rep)
	b.rep.set("storage.failed_ops", float64(writes.failed+reads.failed+backing.failed), iters)
	b.rep.set("core.blocked_puts_per_kiter", 1000*float64(blocked)/float64(iters), iters)
	b.rep.set("core.iter_per_s_wall", float64(iters)/plainWall.Seconds(), iters)
	b.rep.set("trace.overhead_ratio", overhead.median(), len(overhead))
	b.rep.set("parallel.dispatches_per_iter", (counter(env.reg, "parallel.dispatches")-dispatches0)/float64(iters), iters)
	reportAllocs(b.rep, al, iters)
	rs.report(b.rep)
	bd.report(b.rep)
	if st.daemon != nil {
		st.daemon.report(b.rep, writes, backing, base, iters)
	}
	return nil
}

func reportAllocs(r *report, al allocs, n int) {
	r.set("runtime.alloc_bytes_per_iter", float64(al.bytes)/float64(n), n)
	r.set("runtime.allocs_per_iter", float64(al.objects)/float64(n), n)
	r.set("runtime.gc_per_kiter", 1000*float64(al.gcs)/float64(n), n)
}

// verify runs recovery.Verify on every store; an error or an unclean
// report is a failed operation.
func (b *bench) verify(stores ...storage.Store) {
	for _, s := range stores {
		rep, err := recovery.Verify(s, recovery.ValidateOptions{})
		if err == nil && !rep.Clean() {
			valid, corrupt, missing := rep.Counts()
			err = fmt.Errorf("%d valid, %d corrupt, %d missing objects", valid, corrupt, missing)
		}
		b.rep.check("verify store", err)
	}
}
