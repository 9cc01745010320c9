package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lowdiff/internal/core"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
	"lowdiff/internal/storaged"
	"lowdiff/internal/trace"
)

// dp-file: data-parallel LowDiff with Top-K compression and batched
// differential writes to a file store, the paper's default operating point.
func runDPFile(b *bench) error {
	return b.runTrain(trainCase{
		block: 50, // one full-checkpoint period: 1 full + 10 batched diffs
		// Block ends fall 25 iterations past a full, so every restore
		// replays five batched differentials.
		warmup: 25,
		options: func(b *bench) (core.Options, core.Options) {
			o := core.Options{
				Spec: b.spec, Workers: 2, Optimizer: "adam", Codec: "topk", Rho: 0.01,
				FullEvery: 50, BatchSize: 5, RetainFulls: 2, Parallelism: 2, Seed: b.seed,
			}
			return o, o
		},
		pool: func(_ *bench, dir string) (storePool, error) { return filePool{dir}, nil },
	})
}

// filePool gives each engine a storage.File directory.
type filePool struct{ dir string }

func (p filePool) open(name string, timed bool) (*stack, error) {
	f, err := storage.NewFile(filepath.Join(p.dir, name))
	if err != nil {
		return nil, err
	}
	st := &stack{verify: []storage.Store{f}}
	if timed {
		st.timed = newTimedStore(f)
		st.store = st.timed
	} else {
		st.stats = storage.NewStats(f)
		st.store = st.stats
	}
	return st, nil
}

func (filePool) close() error { return nil }

// Daemon sizing for plus-pool. A LowDiff+ full of the 58,489-parameter
// model with Adam is 701,868 bytes plus framing; RetainFulls 2 keeps about
// 1.4 MB. The hot tier holds less than two fulls, so every full spills an
// older one to the file tier; the quota sits above the retained set plus
// the full in flight before garbage collection.
const (
	hotHighWater = 1 << 20
	hotLowWater  = 512 << 10
	tenantQuota  = 4 << 20
)

// plus-pool: LowDiff+ with the overlap schedule, persisting through the
// storage.Remote client to an in-process lowdiff daemon over loopback.
func runPlusPool(b *bench) error {
	return b.runTrain(trainCase{
		block:  50, // five PersistEvery periods
		warmup: 20, // block ends on a persist boundary
		options: func(b *bench) (core.Options, core.Options) {
			ck := core.Options{
				Spec: b.spec, Workers: 2, Optimizer: "adam", Plus: &core.PlusSpec{PersistEvery: 10},
				Overlap: true, RetainFulls: 2, Parallelism: 2, Seed: b.seed,
			}
			twin := core.Options{
				Spec: b.spec, Workers: 2, Optimizer: "adam", Codec: "identity",
				Overlap: true, Parallelism: 2, Seed: b.seed,
			}
			return ck, twin
		},
		pool: newDaemonPool,
	})
}

// daemonPool is one in-process daemon; each engine is one tenant of it.
type daemonPool struct {
	seed uint64
	srv  *storaged.Server
	reg  *obs.Registry

	mu      sync.Mutex
	timed   map[string]bool
	tenants map[string]*daemonSide
	clients []*storage.Remote
}

// daemonSide is one tenant's backing store inside the daemon.
type daemonSide struct {
	tenant  string
	tiered  *storage.Tiered
	backing *timedStore // timed tenants only
	reg     *obs.Registry
}

func newDaemonPool(b *bench, dir string) (storePool, error) {
	p := &daemonPool{seed: b.seed, reg: obs.New(), timed: map[string]bool{}, tenants: map[string]*daemonSide{}}
	srv, err := storaged.Start("127.0.0.1:0", storaged.Config{
		OpenStore: func(tenant string) (storage.Store, error) {
			cold, err := storage.NewFile(filepath.Join(dir, tenant))
			if err != nil {
				return nil, err
			}
			tiered, err := storage.NewTiered(cold, hotHighWater, hotLowWater)
			if err != nil {
				return nil, err
			}
			side := &daemonSide{tenant: tenant, tiered: tiered, reg: p.reg}
			var s storage.Store = tiered
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.timed[tenant] {
				side.backing = newTimedStore(tiered)
				s = side.backing
			}
			p.tenants[tenant] = side
			return s, nil
		},
		DefaultQuotaBytes: tenantQuota,
		ValidateFulls:     true,
		Registry:          p.reg,
	})
	if err != nil {
		return nil, err
	}
	p.srv = srv
	return p, nil
}

func (p *daemonPool) open(name string, timed bool) (*stack, error) {
	p.mu.Lock()
	p.timed[name] = timed
	p.mu.Unlock()
	client, err := storage.DialRemote(p.srv.Addr(), name, storage.RemoteOptions{Seed: p.seed})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.clients = append(p.clients, client)
	side := p.tenants[name]
	p.mu.Unlock()
	if side == nil {
		return nil, fmt.Errorf("daemon opened no store for tenant %s", name)
	}
	st := &stack{verify: []storage.Store{client, side.tiered}}
	if timed {
		st.timed = newTimedStore(client)
		st.store = st.timed
		st.daemon = side
	} else {
		st.stats = storage.NewStats(client)
		st.store = st.stats
	}
	return st, nil
}

func (p *daemonPool) close() error {
	var errs []error
	for _, c := range p.clients {
		errs = append(errs, c.Close())
	}
	errs = append(errs, p.srv.Close())
	return errors.Join(errs...)
}

// daemonCounters are the daemon's cumulative counters for one tenant.
type daemonCounters struct {
	validations, retries, quotaRejects float64
	spilled, evictions                 int64
}

func (d *daemonSide) counters() daemonCounters {
	l := obs.L("tenant", d.tenant)
	return daemonCounters{
		validations:  counter(d.reg, "storaged_validations_total", l),
		retries:      counter(d.reg, "storaged_retries_total", l),
		quotaRejects: counter(d.reg, "storaged_quota_rejects_total", l),
		spilled:      d.tiered.SpilledBytes(),
		evictions:    d.tiered.Evictions(),
	}
}

// report sets the storaged metrics from the client's and the backing
// store's write logs and the counter movement since base.
func (d *daemonSide) report(r *report, client, backing opLog, base daemonCounters, iters int) {
	now := d.counters()
	commits := map[string][]time.Duration{}
	var spans []time.Duration
	for _, w := range backing.writes {
		commits[w.name] = append(commits[w.name], w.span)
		spans = append(spans, w.span)
	}
	var wire []time.Duration
	for _, w := range client.writes {
		if c := commits[w.name]; len(c) > 0 {
			wire = append(wire, w.close-c[0])
			commits[w.name] = c[1:]
		}
	}
	validations := now.validations - base.validations
	r.set("storaged.backing_commit_ms_p50", durations(spans).median(), len(spans))
	r.set("storaged.backing_commit_ms_p95", durations(spans).quantile(0.95), len(spans))
	r.set("storaged.wire_ms_p50", durations(wire).median(), len(wire))
	if validations > 0 {
		r.set("storaged.validate_reads_per_full", float64(len(backing.opens))/validations, int(validations))
	}
	r.set("storaged.retries", now.retries-base.retries, iters)
	r.set("storaged.quota_rejects", now.quotaRejects-base.quotaRejects, iters)
	r.set("storaged.spilled_bytes_per_iter", float64(now.spilled-base.spilled)/float64(iters), iters)
	r.set("storaged.evictions", float64(now.evictions-base.evictions), iters)
}

// recover-chain: one full checkpoint plus chainLen unbatched Adam
// differentials in a file store, recovered again and again.
const (
	chainLen   = 150
	chainBlock = 10 // iterations per train block between recovery rounds
	minRounds  = 100
)

// chainEnv is one set-up of recover-chain.
type chainEnv struct {
	dir   string
	file  *storage.File
	store storage.Store // what recoveries read: Stats or timed wrapper
	timed *timedStore
	live  liveState

	// The chain's configuration trained on, into a store of its own,
	// paired with a W/O CKPT twin between recovery rounds: the workload's
	// train metrics, sampled across the run as the other workloads sample
	// their restores.
	trainFile  *storage.File
	trainStats *storage.Stats
	train      *core.Engine
	twin       *core.Engine
}

func (e *chainEnv) close() error { return os.RemoveAll(e.dir) }

func runRecoverChain(b *bench) error {
	env, err := setupRepeated(b, setups, b.setupChain)
	if err != nil {
		return err
	}
	defer env.close()
	var rs restoreStats
	start := time.Now()
	if !b.traced {
		var ratios, cpu samples
		iters := 0
		bytes0 := env.trainStats.WrittenBytes()
		for k := 0; k < minRounds || time.Since(start) < b.seconds; k++ {
			b.restorePair(env.store, env.live, k%2 == 0, &rs)
			ck, tw, err := pairBlocks(env.train, env.twin, chainBlock, k%2 == 0)
			if !b.rep.check("train block pair", err) {
				return err
			}
			ratios = append(ratios, float64(ck.wall)/float64(tw.wall))
			cpu = append(cpu, ms(ck.cpu)/chainBlock)
			iters += chainBlock
			b.rep.check("twin parity", sameTrajectory(env.train, env.twin))
		}
		rs.report(b.rep)
		b.rep.set("ckpt_overhead_ratio", ratios.median(), len(ratios))
		b.rep.set("cpu_ms_per_iter", cpu.median(), len(cpu))
		b.rep.set("ckpt_bytes_per_iter", float64(env.trainStats.WrittenBytes()-bytes0)/float64(iters), iters)
		b.verify(env.file, env.trainFile)
		return nil
	}

	rec := trace.New()
	var bd breakdown
	var overhead samples
	env.timed.take()
	for k := 0; k < minPairs || time.Since(start) < b.seconds; k++ {
		b.restorePair(env.store, env.live, k%2 == 0, &rs)
		b.decompose(env.timed, &bd)
		if r, ok := b.tracedParallel(env.timed, rec, k%2 == 0); ok {
			overhead = append(overhead, r)
		}
	}
	reads := env.timed.take()
	reads.reportReads(b.rep)
	b.rep.set("storage.failed_ops", float64(reads.failed), rs.recoveries)
	b.rep.set("trace.overhead_ratio", overhead.median(), len(overhead))
	// An "iteration" of recover-chain is one recovery.
	reportAllocs(b.rep, rs.alloc, rs.recoveries)
	rs.report(b.rep)
	bd.report(b.rep)
	b.verify(env.file)
	return nil
}

// setupChain writes the chain, captures the live state the recoveries must
// reproduce, and builds the engine pair the untraced run trains between
// recovery rounds.
func (b *bench) setupChain() (env *chainEnv, err error) {
	env = &chainEnv{}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.dir, err = os.MkdirTemp(b.dir, "chain-"); err != nil {
		return env, err
	}
	if env.file, err = storage.NewFile(filepath.Join(env.dir, "chain")); err != nil {
		return env, err
	}
	env.store = env.file
	if b.traced {
		env.timed = newTimedStore(env.file)
		env.store = env.timed
	}
	opts := core.Options{
		Spec: b.spec, Workers: 2, Optimizer: "adam", Codec: "topk", Rho: 0.01,
		// The initial full is the chain's only one; later fulls, in the
		// train store, replace the history before them.
		FullEvery: chainLen + 1, RetainFulls: 1,
		BatchSize: 1, Parallelism: 2, Seed: b.seed,
	}
	if env.twin, err = core.NewEngine(opts); err != nil {
		return env, err
	}
	if env.trainFile, err = storage.NewFile(filepath.Join(env.dir, "train")); err != nil {
		return env, err
	}
	env.trainStats = storage.NewStats(env.trainFile)
	opts.Store = env.trainStats
	if env.train, err = core.NewEngine(opts); err != nil {
		return env, err
	}
	opts.Store = env.store
	writer, err := core.NewEngine(opts)
	if err != nil {
		return env, err
	}
	if _, _, err := runBlock(writer, chainLen); err != nil {
		return env, fmt.Errorf("write chain: %w", err)
	}
	env.live = liveOf(writer)
	return env, nil
}
