package main

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"lowdiff/internal/storage"
)

func TestTimedStoreMemRoundTrip(t *testing.T) {
	s := newTimedStore(storage.NewMem())
	data := bytes.Repeat([]byte("lowdiff"), 1000)
	if err := storage.WriteObject(s, "full-000000000001.ckpt", data); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadObject(s, "full-000000000001.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes back, want the %d written", len(got), len(data))
	}
	names, err := s.List("full-")
	if err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v; want the one object", names, err)
	}
	if err := s.Delete("full-000000000001.ckpt"); err != nil {
		t.Fatal(err)
	}
	l := s.take()
	if len(l.writes) != 1 || l.writes[0].bytes != int64(len(data)) || l.writes[0].span < l.writes[0].close {
		t.Fatalf("writes = %+v; want one %d-byte object whose span covers its Close", l.writes, len(data))
	}
	if len(l.opens) != 1 || l.readBytes != int64(len(data)) || len(l.lists) != 1 || l.deletes != 1 || l.failed != 0 {
		t.Fatalf("log = %+v; want 1 open, %d bytes read, 1 list, 1 delete, no failures", l, len(data))
	}
}

func TestTimedStoreErrorPassthrough(t *testing.T) {
	s := newTimedStore(storage.NewMem())
	if _, err := s.Open("missing"); !storage.IsNotExist(err) {
		t.Fatalf("Open(missing) = %v; want the wrapped store's not-exist error", err)
	}
	if err := s.Delete("missing"); !storage.IsNotExist(err) {
		t.Fatalf("Delete(missing) = %v; want the wrapped store's not-exist error", err)
	}
	if _, err := s.Create(""); err == nil {
		t.Fatal("Create(\"\") succeeded; want the wrapped store's error")
	}
	if l := s.take(); l.failed != 1 {
		t.Fatalf("failed = %d; want 1 (not-exist errors are not failures)", l.failed)
	}
}

// failingStore hands out writers whose Write fails after the first call.
type failingStore struct{ storage.Store }

var errInjected = errors.New("injected write failure")

type failingWriter struct {
	io.WriteCloser
	calls int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > 1 {
		return 0, errInjected
	}
	return w.WriteCloser.Write(p)
}

func (w *failingWriter) Abort() error { return storage.AbortWriter(w.WriteCloser) }

func (f failingStore) Create(name string) (io.WriteCloser, error) {
	w, err := f.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &failingWriter{WriteCloser: w}, nil
}

func TestTimedStoreAbortLeavesNoObject(t *testing.T) {
	dir := t.TempDir()
	file, err := storage.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTimedStore(failingStore{file})
	w, err := s.Create("diff-000000000001-000000000001.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("half")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("torn")); !errors.Is(err, errInjected) {
		t.Fatalf("second Write = %v; want the injected failure", err)
	}
	if err := storage.AbortWriter(w); err != nil {
		t.Fatalf("AbortWriter: %v", err)
	}
	names, err := file.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("store holds %v after an aborted write; want nothing", names)
	}
	if l := s.take(); len(l.writes) != 0 || l.failed != 1 {
		t.Fatalf("log = %+v; want no committed write and 1 failed call", l)
	}
}
