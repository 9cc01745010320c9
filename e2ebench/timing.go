package main

import (
	"io"
	"sync"
	"time"

	"lowdiff/internal/storage"
)

// timedStore is a storage.Store wrapper that times every call into the
// store it wraps. The traced run hands it to the engine and to the daemon's
// OpenStore, so storage latency is measured from outside the program. The
// untraced run never uses it.
type timedStore struct {
	inner storage.Store

	mu  sync.Mutex
	log opLog
}

// objectWrite is one committed object.
type objectWrite struct {
	name  string
	bytes int64
	span  time.Duration // Create call start to Close return
	inner time.Duration // time spent inside the wrapped store's Create, Write and Close
	close time.Duration // the Close call alone: the durability point
}

// opLog is everything a timedStore observed since it was last taken.
type opLog struct {
	writes     []objectWrite
	writeCalls []time.Duration
	opens      []time.Duration
	lists      []time.Duration
	readTime   time.Duration // inside Read calls
	readBytes  int64
	deletes    int
	failed     int // calls that returned an error other than "not exist"
}

func newTimedStore(inner storage.Store) *timedStore { return &timedStore{inner: inner} }

// take returns the log and starts a new one.
func (s *timedStore) take() opLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.log
	s.log = opLog{}
	return l
}

// ioTime returns the cumulative time spent in Open and Read calls of the
// current log, so a caller can subtract storage time from a decode.
func (s *timedStore) ioTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.log.readTime
	for _, d := range s.log.opens {
		t += d
	}
	return t
}

func (s *timedStore) record(err error, fn func(l *opLog)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && !storage.IsNotExist(err) {
		s.log.failed++
	}
	if fn != nil {
		fn(&s.log)
	}
}

// Create implements storage.Store.
func (s *timedStore) Create(name string) (io.WriteCloser, error) {
	t0 := time.Now()
	w, err := s.inner.Create(name)
	d := time.Since(t0)
	if err != nil {
		s.record(err, nil)
		return nil, err
	}
	return &timedWriter{w: w, s: s, name: name, start: t0, inner: d}, nil
}

// Open implements storage.Store.
func (s *timedStore) Open(name string) (io.ReadCloser, error) {
	t0 := time.Now()
	r, err := s.inner.Open(name)
	d := time.Since(t0)
	if err != nil {
		s.record(err, nil)
		return nil, err
	}
	s.record(nil, func(l *opLog) { l.opens = append(l.opens, d) })
	return &timedReader{r: r, s: s}, nil
}

// List implements storage.Store.
func (s *timedStore) List(prefix string) ([]string, error) {
	t0 := time.Now()
	names, err := s.inner.List(prefix)
	d := time.Since(t0)
	s.record(err, func(l *opLog) {
		if err == nil {
			l.lists = append(l.lists, d)
		}
	})
	return names, err
}

// Delete implements storage.Store.
func (s *timedStore) Delete(name string) error {
	err := s.inner.Delete(name)
	s.record(err, func(l *opLog) {
		if err == nil {
			l.deletes++
		}
	})
	return err
}

// Size implements storage.Store.
func (s *timedStore) Size(name string) (int64, error) {
	n, err := s.inner.Size(name)
	s.record(err, nil)
	return n, err
}

type timedWriter struct {
	w     io.WriteCloser
	s     *timedStore
	name  string
	start time.Time
	inner time.Duration
	bytes int64
	done  bool
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.w.Write(p)
	d := time.Since(t0)
	w.inner += d
	w.bytes += int64(n)
	w.s.record(err, func(l *opLog) { l.writeCalls = append(l.writeCalls, d) })
	return n, err
}

func (w *timedWriter) Close() error {
	t0 := time.Now()
	err := w.w.Close()
	end := time.Now()
	if w.done {
		return err
	}
	w.done = true
	w.s.record(err, func(l *opLog) {
		if err == nil {
			l.writes = append(l.writes, objectWrite{
				name: w.name, bytes: w.bytes, span: end.Sub(w.start),
				inner: w.inner + end.Sub(t0), close: end.Sub(t0),
			})
		}
	})
	return err
}

// Abort forwards to the wrapped writer, so storage.AbortWriter discards a
// failed write instead of committing a torn object through Close.
func (w *timedWriter) Abort() error {
	w.done = true
	err := storage.AbortWriter(w.w)
	w.s.record(err, nil)
	return err
}

type timedReader struct {
	r io.ReadCloser
	s *timedStore
}

func (r *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := r.r.Read(p)
	d := time.Since(t0)
	failure := err
	if failure == io.EOF {
		failure = nil // the end of an object is not a failed operation
	}
	r.s.record(failure, func(l *opLog) {
		l.readTime += d
		l.readBytes += int64(n)
	})
	return n, err
}

func (r *timedReader) Close() error { return r.r.Close() }
