package main

import (
	"fmt"
	"math"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/optim"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// parallelism is the recovery.LatestParallel fan-out: one per core of the
// two-core machine the benchmark is sized for.
const parallelism = 2

// liveState is the state a restore must reproduce.
type liveState struct {
	iter   int64
	params tensor.Vector
	opt    optim.State
}

// restoreStats accumulates every restore a run makes.
type restoreStats struct {
	serialCPU, parallelCPU   samples // ms
	serialWall, parallelWall samples // ms
	speedups                 samples // serial wall / parallel wall, adjacent pairs
	exact, total             int
	maxErr                   float64
	alloc                    allocs // made by the serial and parallel recoveries
	recoveries               int
}

// compare checks a restored state against the live one. A restore that
// lands on another iteration is a failed operation; one that lands on the
// right iteration with different bits counts only against
// restore_exact_ratio.
func (rs *restoreStats) compare(st *recovery.State, live liveState) error {
	if st.Iter != live.iter {
		return fmt.Errorf("restore landed at iteration %d, live engine is at %d", st.Iter, live.iter)
	}
	errMax, err := stateDiff(st, live)
	if err != nil {
		return err
	}
	rs.total++
	if errMax == 0 && stateEqual(st, live) {
		rs.exact++
	}
	rs.maxErr = math.Max(rs.maxErr, errMax)
	return nil
}

// stateDiff returns the largest absolute difference between a restored
// state's parameters and optimizer slots and the live ones.
func stateDiff(st *recovery.State, live liveState) (float64, error) {
	m, err := st.Params.MaxAbsDiff(live.params)
	if err != nil {
		return 0, err
	}
	for name, slot := range live.opt.Slots {
		d, err := tensor.Vector(st.Opt.Slots[name]).MaxAbsDiff(slot)
		if err != nil {
			return 0, fmt.Errorf("optimizer slot %s: %w", name, err)
		}
		m = math.Max(m, d)
	}
	return m, nil
}

// stateEqual reports bit-identity of parameters and optimizer state.
func stateEqual(st *recovery.State, live liveState) bool {
	o := st.Opt
	if !st.Params.Equal(live.params) || o.Name != live.opt.Name || o.Step != live.opt.Step ||
		len(o.Slots) != len(live.opt.Slots) || len(o.Scalars) != len(live.opt.Scalars) {
		return false
	}
	for k, v := range live.opt.Scalars {
		if ov, ok := o.Scalars[k]; !ok || math.Float64bits(ov) != math.Float64bits(v) {
			return false
		}
	}
	for k, v := range live.opt.Slots {
		if !tensor.Vector(o.Slots[k]).Equal(v) {
			return false
		}
	}
	return true
}

// restorePair runs one serial and one parallel recovery of store, in the
// order given, compares both with live, and records their cost.
func (b *bench) restorePair(store storage.Store, live liveState, serialFirst bool, rs *restoreStats) {
	one := func(what string, recover func() (*recovery.State, int, error), cpu, wall *samples) span {
		var st *recovery.State
		sp, err := measure(func() (err error) { st, _, err = recover(); return err })
		if err == nil {
			err = rs.compare(st, live)
		}
		if !b.rep.check(what, err) {
			return span{}
		}
		rs.alloc.add(sp.alloc)
		rs.recoveries++
		*cpu = append(*cpu, ms(sp.cpu))
		*wall = append(*wall, ms(sp.wall))
		return sp
	}
	serial := func() span {
		return one("serial restore", func() (*recovery.State, int, error) {
			return recovery.Latest(store)
		}, &rs.serialCPU, &rs.serialWall)
	}
	parallel := func() span {
		return one("parallel restore", func() (*recovery.State, int, error) {
			return recovery.LatestParallel(store, recovery.Options{Parallelism: parallelism})
		}, &rs.parallelCPU, &rs.parallelWall)
	}
	var s, p span
	if serialFirst {
		s, p = serial(), parallel()
	} else {
		p, s = parallel(), serial()
	}
	if s.wall > 0 && p.wall > 0 {
		rs.speedups = append(rs.speedups, float64(s.wall)/float64(p.wall))
	}
}

// report sets the end-to-end recovery metrics and restore_exact_ratio.
func (rs *restoreStats) report(r *report) {
	r.set("recover_cpu_ms_p50", rs.serialCPU.median(), len(rs.serialCPU))
	r.set("recover_cpu_ms_p90", rs.serialCPU.quantile(0.9), len(rs.serialCPU))
	r.set("recover_parallel_cpu_ms_p50", rs.parallelCPU.median(), len(rs.parallelCPU))
	r.set("recover_parallel_speedup", rs.speedups.median(), len(rs.speedups))
	r.set("restore_exact_ratio", float64(rs.exact)/float64(rs.total), rs.total)
	r.set("recovery.max_abs_err", rs.maxErr, rs.total)
	r.set("recovery.serial_wall_ms_p50", rs.serialWall.median(), len(rs.serialWall))
	r.set("recovery.parallel_wall_ms_p50", rs.parallelWall.median(), len(rs.parallelWall))
}

// breakdown accumulates recoveries decomposed into the calls
// recovery.Latest makes: checkpoint.Scan, LoadFull, LoadDiff per
// differential, and recovery.Replay.
type breakdown struct {
	scan, loadFull, loadDiff, replay samples // ms
	decode                           samples // ms per LoadDiff, storage time removed
}

// decompose recovers store through the public building blocks of
// recovery.Latest, timing each, and checks that the result is
// bit-identical to recovery.Latest's own: the breakdown must measure the
// same program.
func (b *bench) decompose(store *timedStore, bd *breakdown) {
	t0 := time.Now()
	m, err := checkpoint.Scan(store)
	scan := time.Since(t0)
	if !b.rep.check("decomposed restore: scan", err) {
		return
	}
	latest, ok := m.LatestFull()
	if !ok {
		b.rep.check("decomposed restore", fmt.Errorf("no full checkpoint in store"))
		return
	}
	t0 = time.Now()
	full, err := checkpoint.LoadFull(store, latest.Name)
	loadFull := time.Since(t0)
	if !b.rep.check("decomposed restore: load full", err) {
		return
	}
	chain := m.DiffsAfter(full.Iter)
	diffs := make([]*checkpoint.Diff, 0, len(chain))
	var loads, decodes samples
	for _, e := range chain {
		io0, t0 := store.ioTime(), time.Now()
		d, err := checkpoint.LoadDiff(store, e.Name)
		el := time.Since(t0)
		if !b.rep.check("decomposed restore: load diff", err) {
			return
		}
		loads = append(loads, ms(el))
		decodes = append(decodes, ms(el-(store.ioTime()-io0)))
		diffs = append(diffs, d)
	}
	t0 = time.Now()
	st, err := recovery.Replay(full, diffs)
	replay := time.Since(t0)
	if !b.rep.check("decomposed restore: replay", err) {
		return
	}
	ref, _, err := recovery.Latest(store)
	if !b.rep.check("decomposed restore: reference", err) {
		return
	}
	if !b.rep.check("decomposed restore", sameState(st, ref)) {
		return
	}
	bd.scan = append(bd.scan, ms(scan))
	bd.loadFull = append(bd.loadFull, ms(loadFull))
	bd.replay = append(bd.replay, ms(replay))
	bd.loadDiff = append(bd.loadDiff, loads...)
	bd.decode = append(bd.decode, decodes...)
}

// sameState reports an error unless two recovered states are bit-identical.
func sameState(a, ref *recovery.State) error {
	live := liveState{iter: ref.Iter, params: ref.Params, opt: ref.Opt}
	if a.Iter != ref.Iter || !stateEqual(a, live) {
		d, _ := stateDiff(a, live)
		return fmt.Errorf("decomposition reached iteration %d, recovery.Latest %d, max |err| %g", a.Iter, ref.Iter, d)
	}
	return nil
}

func (bd *breakdown) report(r *report) {
	r.set("recovery.scan_ms_p50", bd.scan.median(), len(bd.scan))
	r.set("recovery.load_full_ms_p50", bd.loadFull.median(), len(bd.loadFull))
	r.set("recovery.load_diff_ms_p50", bd.loadDiff.median(), len(bd.loadDiff))
	r.set("recovery.replay_ms_p50", bd.replay.median(), len(bd.replay))
	r.set("checkpoint.decode_ms_per_diff", bd.decode.sum()/float64(len(bd.decode)), len(bd.decode))
}

// tracedParallel times one untraced and one traced recovery.LatestParallel,
// in the order given, and returns traced wall / untraced wall.
func (b *bench) tracedParallel(store storage.Store, rec *trace.Recorder, tracedFirst bool) (float64, bool) {
	var plain, traced time.Duration
	one := func(r *trace.Recorder) time.Duration {
		t0 := time.Now()
		_, _, err := recovery.LatestParallel(store, recovery.Options{Parallelism: parallelism, Trace: r})
		d := time.Since(t0)
		if !b.rep.check("parallel restore", err) {
			return 0
		}
		return d
	}
	if tracedFirst {
		traced, plain = one(rec), one(nil)
	} else {
		plain, traced = one(nil), one(rec)
	}
	if plain == 0 || traced == 0 {
		return 0, false
	}
	return float64(traced) / float64(plain), true
}
