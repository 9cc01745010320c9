package comm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lowdiff/internal/tensor"
)

// ringLens draws uneven vector lengths for an n-rank ring: empty, below
// the rank count, around it, and well above it.
func ringLens(r *tensor.RNG, n int) []int {
	lens := make([]int, 1+r.Intn(6))
	for i := range lens {
		switch r.Intn(4) {
		case 0:
			lens[i] = 0
		case 1:
			lens[i] = r.Intn(n) // below the rank count
		case 2:
			lens[i] = n - 1 + r.Intn(3)
		default:
			lens[i] = r.Intn(200)
		}
	}
	return lens
}

// TestRingAllReduceCoalescedMatchesPerVector: one coalesced call over
// several uneven vectors must leave every rank with exactly the bits of
// one call per vector. Three and four ranks make the reduction order
// observable (with two, a+b == b+a).
func TestRingAllReduceCoalescedMatchesPerVector(t *testing.T) {
	for _, n := range []int{3, 4} {
		f := func(seed uint64) bool {
			r := tensor.NewRNG(seed)
			lens := ringLens(r, n)
			coalesced := make([][]tensor.Vector, n)
			single := make([][]tensor.Vector, n)
			for rank := 0; rank < n; rank++ {
				for _, l := range lens {
					v := tensor.New(l)
					r.FillUniform(v, -1, 1)
					coalesced[rank] = append(coalesced[rank], v)
					single[rank] = append(single[rank], v.Clone())
				}
			}
			g1, _ := NewGroup(n)
			g2, _ := NewGroup(n)
			runRanks(t, n, func(rank int) error {
				return g1.RingAllReduceSum(rank, coalesced[rank]...)
			})
			runRanks(t, n, func(rank int) error {
				for _, v := range single[rank] {
					if err := g2.RingAllReduceSum(rank, v); err != nil {
						return err
					}
				}
				return nil
			})
			for rank := 0; rank < n; rank++ {
				for i := range lens {
					if !coalesced[rank][i].Equal(single[rank][i]) || !coalesced[rank][i].Equal(coalesced[0][i]) {
						t.Logf("n=%d lens=%v: rank %d vector %d differs", n, lens, rank, i)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// runRanksErrs runs fn on every rank and returns each rank's error,
// failing the test if any rank is still blocked after a deadline.
func runRanksErrs(t *testing.T, n int, fn func(rank int) error) []error {
	t.Helper()
	errs := make([]error, n)
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = fn(rank)
			}(r)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ring all-reduce deadlocked")
	}
	return errs
}

// TestRingAllReduceCoalescedMismatchFailsEverywhere: a vector count or
// length disagreement must fail on every rank, without deadlock, and
// leave the group usable.
func TestRingAllReduceCoalescedMismatchFailsEverywhere(t *testing.T) {
	for _, n := range []int{3, 4} {
		g, _ := NewGroup(n)
		for _, tc := range []struct {
			name string
			vecs func(rank int) []tensor.Vector
		}{
			{"length", func(rank int) []tensor.Vector {
				if rank == n-1 {
					return []tensor.Vector{tensor.New(5), tensor.New(3)}
				}
				return []tensor.Vector{tensor.New(5), tensor.New(2)}
			}},
			{"count", func(rank int) []tensor.Vector {
				if rank == 1 {
					return []tensor.Vector{tensor.New(5)}
				}
				return []tensor.Vector{tensor.New(5), tensor.New(2)}
			}},
		} {
			errs := runRanksErrs(t, n, func(rank int) error {
				return g.RingAllReduceSum(rank, tc.vecs(rank)...)
			})
			for rank, err := range errs {
				if err == nil {
					t.Fatalf("n=%d %s mismatch: rank %d got no error", n, tc.name, rank)
				}
			}
		}
		vecs := make([]tensor.Vector, n)
		for rank := range vecs {
			vecs[rank] = tensor.Vector{1, 2, 3, 4, 5}
		}
		for rank, err := range runRanksErrs(t, n, func(rank int) error {
			return g.RingAllReduceSum(rank, vecs[rank])
		}) {
			if err != nil {
				t.Fatalf("n=%d: group unusable after a mismatch: rank %d: %v", n, rank, err)
			}
			if want := float32(5 * n); vecs[rank][4] != want {
				t.Fatalf("n=%d: rank %d sum %v, want %v", n, rank, vecs[rank][4], want)
			}
		}
	}
}

// TestRingAllReduceSteadyStateAllocationFree: after warm-up, coalesced
// calls reuse the group's send buffers and length lists.
func TestRingAllReduceSteadyStateAllocationFree(t *testing.T) {
	const n, warm, calls = 3, 10, 200
	g, _ := NewGroup(n)
	vecs := make([][]tensor.Vector, n)
	for rank := range vecs {
		for _, l := range []int{31, 2, 17, 0, 64} {
			vecs[rank] = append(vecs[rank], tensor.New(l))
		}
	}
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		ready.Add(1)
		done.Add(1)
		go func(rank int) {
			defer done.Done()
			for i := 0; i < warm; i++ {
				if err := g.RingAllReduceSum(rank, vecs[rank]...); err != nil {
					errs[rank] = err
				}
			}
			ready.Done()
			<-start
			for i := 0; i < calls; i++ {
				if err := g.RingAllReduceSum(rank, vecs[rank]...); err != nil {
					errs[rank] = err
				}
			}
		}(rank)
	}
	ready.Wait()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	done.Wait()
	runtime.ReadMemStats(&after)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if perCall := float64(after.Mallocs-before.Mallocs) / calls; perCall > 0.1 {
		t.Fatalf("%.2f allocations per coalesced call, want none", perCall)
	}
}

func ExampleGroup_RingAllReduceSum() {
	g, _ := NewGroup(2)
	a := [][]tensor.Vector{{{1, 2}, {3}}, {{10, 20}, {30}}}
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_ = g.RingAllReduceSum(rank, a[rank]...) // one call, two vectors
		}(rank)
	}
	wg.Wait()
	fmt.Println(a[0], a[1])
	// Output: [[11 22] [33]] [[11 22] [33]]
}
