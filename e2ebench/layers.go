package main

import (
	"strings"
	"time"

	"lowdiff/internal/obs"
	"lowdiff/internal/trace"
)

// durations converts durations to millisecond samples.
func durations(ds []time.Duration) samples {
	s := make(samples, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	return s
}

// add appends another log's observations to l.
func (l *opLog) add(o opLog) {
	l.writes = append(l.writes, o.writes...)
	l.writeCalls = append(l.writeCalls, o.writeCalls...)
	l.opens = append(l.opens, o.opens...)
	l.lists = append(l.lists, o.lists...)
	l.readTime += o.readTime
	l.readBytes += o.readBytes
	l.deletes += o.deletes
	l.failed += o.failed
}

// reportWrites sets the write-side storage and encoder metrics of a log
// taken around the traced engine's blocks.
func (l *opLog) reportWrites(r *report, iters int) {
	var closes, selfs []time.Duration
	var diffBytes, diffs int64
	for _, w := range l.writes {
		closes = append(closes, w.close)
		selfs = append(selfs, w.span-w.inner)
		if strings.HasPrefix(w.name, "diff-") {
			diffBytes += w.bytes
			diffs++
		}
	}
	r.set("storage.objects_per_iter", float64(len(l.writes))/float64(iters), iters)
	r.set("storage.close_ms_p50", durations(closes).median(), len(closes))
	r.set("storage.close_ms_p95", durations(closes).quantile(0.95), len(closes))
	r.set("storage.write_call_ms_p95", durations(l.writeCalls).quantile(0.95), len(l.writeCalls))
	r.set("storage.deletes_per_kiter", 1000*float64(l.deletes)/float64(iters), iters)
	r.set("checkpoint.encode_self_ms_per_object", durations(selfs).sum()/float64(len(selfs)), len(selfs))
	r.set("checkpoint.diff_bytes_per_write", float64(diffBytes)/float64(diffs), int(diffs))
}

// reportReads sets the read-side storage metrics of a log taken around
// recoveries.
func (l *opLog) reportReads(r *report) {
	r.set("storage.open_ms_p50", durations(l.opens).median(), len(l.opens))
	if l.readBytes > 0 {
		r.set("storage.read_ms_per_mb", ms(l.readTime)/(float64(l.readBytes)/(1<<20)), len(l.opens))
	}
	r.set("storage.list_ms_p50", durations(l.lists).median(), len(l.lists))
}

// profileAcc folds the traced engine's spans block by block, so the
// recorder can stay a bounded ring however long the run is.
type profileAcc struct {
	next                        uint64 // first sequence number not yet folded
	spans                       map[string][]time.Duration
	stall, overlapped, headroom time.Duration
	snapshot                    time.Duration
}

func phaseKey(track, phase string) string { return track + "/" + phase }

// skip marks every event recorded so far as folded without folding it.
func (a *profileAcc) skip(rec *trace.Recorder) {
	for _, e := range rec.Events() {
		a.next = max(a.next, e.Seq+1)
	}
}

// add folds the events recorded since the last call.
func (a *profileAcc) add(rec *trace.Recorder) {
	var evs []trace.Event
	next := a.next
	for _, e := range rec.Events() {
		if e.Seq >= a.next {
			evs = append(evs, e)
			next = max(next, e.Seq+1)
		}
	}
	a.next = next
	if a.spans == nil {
		a.spans = map[string][]time.Duration{}
	}
	for _, e := range evs {
		k := phaseKey(e.Track, e.Name)
		a.spans[k] = append(a.spans[k], e.Dur)
		// Snapshot work is summed over every track: the trainer's own
		// copies and those the overlap schedule or LowDiff+ offload move
		// elsewhere.
		if e.Name == trace.PhaseSnapshot {
			a.snapshot += e.Dur
		}
	}
	p := trace.BuildProfile(evs)
	a.stall += p.TrainStall
	a.overlapped += p.Overlapped
	a.headroom += p.Overlapped + p.Overlap
}

// report sets the core, compress, comm and checkpoint metrics the
// engine's own trace recorder measured over iters iterations.
func (a *profileAcc) report(r *report, iters int) {
	set := func(name, track, ph string, q float64) {
		s := durations(a.spans[phaseKey(track, ph)])
		r.set(name, s.quantile(q), len(s))
	}
	set("core.iter_ms_p50", trace.TrackTrain, trace.PhaseIteration, 0.5)
	set("core.iter_ms_p95", trace.TrackTrain, trace.PhaseIteration, 0.95)
	set("core.queue_wait_ms_p95", trace.TrackTrain, trace.PhaseQueueWait, 0.95)
	set("core.compute_ms_p50", trace.TrackTrain, trace.PhaseCompute, 0.5)
	set("core.apply_ms_p50", trace.TrackTrain, trace.PhaseApply, 0.5)
	set("compress.compress_ms_p50", trace.TrackTrain, trace.PhaseCompress, 0.5)
	set("compress.compress_ms_p95", trace.TrackTrain, trace.PhaseCompress, 0.95)
	set("comm.allgather_ms_p50", trace.TrackTrain, trace.PhaseAllGather, 0.5)
	set("comm.allgather_ms_p95", trace.TrackTrain, trace.PhaseAllGather, 0.95)
	set("checkpoint.merge_ms_p50", trace.TrackCheckpoint, trace.PhaseMerge, 0.5)
	set("checkpoint.diff_write_ms_p50", trace.TrackPersist, trace.PhaseDiffWrite, 0.5)
	set("checkpoint.diff_write_ms_p95", trace.TrackPersist, trace.PhaseDiffWrite, 0.95)
	set("checkpoint.full_write_ms_p50", trace.TrackPersist, trace.PhaseFullWrite, 0.5)
	set("checkpoint.full_write_ms_p95", trace.TrackPersist, trace.PhaseFullWrite, 0.95)
	r.set("core.snapshot_ms_per_iter", ms(a.snapshot)/float64(iters), iters)
	r.set("core.train_stall_ms_per_iter", ms(a.stall)/float64(iters), iters)
	if a.headroom > 0 {
		r.set("core.overlap_ratio", float64(a.overlapped)/float64(a.headroom), iters)
	}
}

// counter returns the summed value of every series of a registry metric
// whose labels include all of want.
func counter(reg *obs.Registry, name string, want ...obs.Label) float64 {
	var v float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name && hasLabels(m.Labels, want) {
			v += m.Value
		}
	}
	return v
}

func hasLabels(have, want []obs.Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			found = found || h == w
		}
		if !found {
			return false
		}
	}
	return true
}
