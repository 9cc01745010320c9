package checkpoint

import (
	"bytes"
	"fmt"
	"testing"

	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// sameVerdict decodes data in discard mode and checks it against
// DecodeFull's result (full, err): both must accept or both reject, and
// an accepted record must agree on everything discard mode keeps.
func sameVerdict(full *Full, err error, data []byte) error {
	disc, derr := DecodeFullDiscard(bytes.NewReader(data))
	if (err == nil) != (derr == nil) {
		return fmt.Errorf("verdicts differ: DecodeFull err %v, discard err %v", err, derr)
	}
	if err != nil {
		return nil
	}
	if disc.Params != nil {
		return fmt.Errorf("discard mode kept %d params", len(disc.Params))
	}
	if disc.Iter != full.Iter || disc.Opt.Name != full.Opt.Name || disc.Opt.Step != full.Opt.Step ||
		fmt.Sprint(disc.Opt.Scalars) != fmt.Sprint(full.Opt.Scalars) || len(disc.Opt.Slots) != len(full.Opt.Slots) {
		return fmt.Errorf("discard mode decoded %+v, DecodeFull %+v", disc.Opt, full.Opt)
	}
	for k, v := range disc.Opt.Slots {
		if _, ok := full.Opt.Slots[k]; !ok || v != nil {
			return fmt.Errorf("discard mode slot %q: present in DecodeFull %v, kept %d values", k, ok, len(v))
		}
	}
	return nil
}

// TestDecodeFullDiscardAgreesWithDecodeFull pins the discard mode to the
// full decoder on every truncation and every single-byte flip of an
// encoded record.
func TestDecodeFullDiscardAgreesWithDecodeFull(t *testing.T) {
	params := tensor.New(24)
	tensor.NewRNG(5).FillUniform(params, -1, 1)
	a := optim.NewAdam(24, optim.AdamConfig{})
	if err := a.Step(params, params.Clone()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (&Full{Iter: 9, Params: params, Opt: a.Snapshot()}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	check := func(what string, data []byte) error {
		full, err := DecodeFull(bytes.NewReader(data))
		if verr := sameVerdict(full, err, data); verr != nil {
			t.Fatalf("%s: %v", what, verr)
		}
		return err
	}
	if err := check("intact record", enc); err != nil {
		t.Fatalf("intact record rejected: %v", err)
	}
	for n := 0; n < len(enc); n++ {
		if check(fmt.Sprintf("truncated to %d bytes", n), enc[:n]) == nil {
			t.Fatalf("record truncated to %d of %d bytes accepted", n, len(enc))
		}
	}
	for i := range enc {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			data := bytes.Clone(enc)
			data[i] ^= x
			if check(fmt.Sprintf("byte %d ^ %#x", i, x), data) == nil {
				t.Fatalf("byte %d ^ %#x accepted", i, x)
			}
		}
	}
}

// TestReadF32sSpansChunks: a vector of several read chunks decodes
// exactly, into an exact-size result, and discard mode reads past it.
func TestReadF32sSpansChunks(t *testing.T) {
	const n = 2<<20 + 12345 // two full 1M-element chunks and a partial one
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i) * 0.5
	}
	var buf bytes.Buffer
	if err := writeF32s(&buf, v, nil); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("tail")
	data := buf.Bytes()
	r := bytes.NewReader(data)
	got, err := readF32s(r, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || cap(got) != n {
		t.Fatalf("len %d cap %d, want both %d", len(got), cap(got), n)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], v[i])
		}
	}
	r = bytes.NewReader(data)
	if got, err := readF32s(r, nil, true); err != nil || got != nil {
		t.Fatalf("discard: %d elements, err %v", len(got), err)
	}
	if r.Len() != len("tail") {
		t.Fatalf("discard left %d bytes unread, want %d", r.Len(), len("tail"))
	}
	// A length field claiming more than the stream holds fails at EOF.
	if _, err := readF32s(bytes.NewReader(data[:len(data)-4-400]), nil, false); err == nil {
		t.Fatal("truncated vector decoded")
	}
}
