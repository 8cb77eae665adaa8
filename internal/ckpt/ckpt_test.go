package ckpt

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func roundTrip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(payload) + 4); w.N() != want {
		t.Fatalf("N = %d, want %d", w.N(), want)
	}
	return buf.Bytes()
}

func TestWriterReaderRoundTrip(t *testing.T) {
	payload := []byte("MAGIC1 body bytes of an artifact")
	full := roundTrip(t, payload)
	r := NewReader(bytes.NewReader(full))
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mangled")
	}
	if err := r.VerifyFooter(); err != nil {
		t.Fatalf("valid footer rejected: %v", err)
	}
}

func TestVerifyFooterDetectsEveryFlippedByte(t *testing.T) {
	payload := []byte("body under test")
	full := roundTrip(t, payload)
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x04
		r := NewReader(bytes.NewReader(mut))
		if _, err := io.CopyN(io.Discard, r, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyFooter(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped byte %d: err = %v, want ErrChecksum", i, err)
		}
	}
}

func TestVerifyFooterShortRead(t *testing.T) {
	full := roundTrip(t, []byte("body"))
	r := NewReader(bytes.NewReader(full[:len(full)-2]))
	if _, err := io.CopyN(io.Discard, r, 4); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFooter(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("truncated footer: err = %v, want ErrChecksum", err)
	}
}

// TestNestedWriters locks the nesting contract: an outer writer hashes
// the inner artifact's footer bytes, because they pass through its Write.
func TestNestedWriters(t *testing.T) {
	var buf bytes.Buffer
	outer := NewWriter(&buf)
	if _, err := outer.Write([]byte("OUTER hdr")); err != nil {
		t.Fatal(err)
	}
	inner := NewWriter(outer)
	if _, err := inner.Write([]byte("inner body")); err != nil {
		t.Fatal(err)
	}
	if err := inner.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	if err := outer.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Verify the outer footer over everything before it.
	r := NewReader(bytes.NewReader(full))
	if _, err := io.CopyN(io.Discard, r, int64(len(full)-4)); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFooter(); err != nil {
		t.Fatalf("outer footer: %v", err)
	}
	// Flipping a byte inside the inner footer must break the outer hash.
	mut := append([]byte(nil), full...)
	mut[len(mut)-6] ^= 0x01 // inside the inner footer region
	r = NewReader(bytes.NewReader(mut))
	if _, err := io.CopyN(io.Discard, r, int64(len(mut)-4)); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFooter(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("outer footer missed inner-footer corruption: %v", err)
	}
}
