package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// samples is a list of measurements of one quantity.
type samples []float64

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between the closest ranks, or NaN when there are no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// cpuTime returns the process's user plus system CPU time. It covers every
// goroutine in the process: the trainer, the asynchronous checkpointer, the
// garbage collector and, on plus-pool, the in-process daemon.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is the cost of one measured call.
type span struct {
	wall, cpu time.Duration
	alloc     allocs
}

// measure runs fn from a freshly collected heap and returns its wall and
// process CPU time and the allocations it made. Collecting first keeps one
// call from paying for garbage an earlier call left behind; the collection
// and the allocation readings are outside the timed interval.
func measure(fn func() error) (span, error) {
	runtime.GC()
	a0 := readAllocs()
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	sp := span{wall: time.Since(t0), cpu: cpuTime() - c0}
	sp.alloc = readAllocs().since(a0)
	return sp, err
}

// allocs counts heap allocations and garbage collections.
type allocs struct {
	bytes, objects uint64
	gcs            uint32
}

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{bytes: ms.TotalAlloc, objects: ms.Mallocs, gcs: ms.NumGC}
}

// since returns the allocations made between reading b and reading a.
func (a allocs) since(b allocs) allocs {
	return allocs{bytes: a.bytes - b.bytes, objects: a.objects - b.objects, gcs: a.gcs - b.gcs}
}

func (a *allocs) add(b allocs) {
	a.bytes += b.bytes
	a.objects += b.objects
	a.gcs += b.gcs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
