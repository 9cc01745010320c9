package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"lowdiff/internal/model"
	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// failingOpt is a replica optimizer whose Step always fails.
type failingOpt struct{ optim.Optimizer }

var errReplicaStep = errors.New("replica step failed")

func (failingOpt) Step(_, _ tensor.Vector) error { return errReplicaStep }

// TestPlusRunReturnsAssemblerError: when the replica assembler fails,
// Run must return that error instead of hanging. The assembler used to
// stop draining the reusing queue at its first error; the offload pool
// then blocked on a full queue and the trainer behind it.
func TestPlusRunReturnsAssemblerError(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		pe, err := NewPlusEngine(PlusOptions{Spec: model.Tiny(3, 16), Workers: 2, Seed: 5, Overlap: overlap})
		if err != nil {
			t.Fatal(err)
		}
		rep := pe.rep.(*plusReplica)
		rep.opt = failingOpt{rep.opt}
		done := make(chan error, 1)
		go func() {
			_, err := pe.Run(200)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, errReplicaStep) {
				t.Fatalf("overlap=%v: Run returned %v, want %v", overlap, err, errReplicaStep)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("overlap=%v: Run hung after an assembler failure", overlap)
		}
	}
}

// TestPlusStepSteadyStateAllocations: once warm, a LowDiff+ iteration —
// coalesced all-reduce, host copy, queue hand-off, replica assembly —
// recycles its buffers instead of allocating. A one-iteration queue and
// a single offload worker keep the copies in flight within the free
// list's bound.
func TestPlusStepSteadyStateAllocations(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		pe, err := NewPlusEngine(PlusOptions{
			Spec: model.Tiny(40, 64), Workers: 2, Seed: 3, Overlap: overlap,
			QueueCap: 40, SnapshotWorkers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mallocs := func(iters int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := pe.Run(iters); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs(300) // warm the free list and send buffers
		// Run's own set-up (goroutines, channels) costs the same for any
		// length, so the difference is the per-iteration cost.
		short, long := mallocs(50), mallocs(250)
		perIter := (float64(long) - float64(short)) / 200
		if perIter > 0.5 {
			t.Fatalf("overlap=%v: %.2f allocations per iteration, want none", overlap, perIter)
		}
	}
}
