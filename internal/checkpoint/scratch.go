package checkpoint

import "sync"

// scratch is the pooled byte buffer writeF32s and readF32s stage
// conversions through, replacing a per-vector allocation on every
// checkpoint write and read. A scratch buffer never escapes the call that
// got it (writers and readers must not retain the slice past Write or
// Read, per the io.Writer and io.Reader contracts).

type scratchBuf struct{ b []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratchBuf) }}

func getScratch(n int) *scratchBuf {
	s := scratchPool.Get().(*scratchBuf)
	if cap(s.b) < n {
		s.b = make([]byte, n)
	}
	s.b = s.b[:n]
	return s
}

func (s *scratchBuf) release() { scratchPool.Put(s) }
