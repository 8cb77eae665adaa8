package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var errTest = fmt.Errorf("test: not a test artifact: %w", ErrBadFormat)

// TestCodecRoundTrip writes every field kind, reads it back and checks
// the magic is under the footer. The float slab is longer than a chunk,
// so it arrives in pieces, and must end at exactly its length.
func TestCodecRoundTrip(t *testing.T) {
	const n = 5*chunk/8 + 3
	big := make([]float64, n)
	big[n-1] = 7
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TEST1")
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 40)
	e.F64(-2.5)
	e.Blob([]byte("blob"))
	PutFloats(e, big, 8)
	PutFloats(e, []float64{0.1}, 4)
	PutFloats(e, []float32{0.25}, 8)
	PutWords(e, []int32{-1, 2})
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if want := int64(5 + 1 + 4 + 8 + 8 + 8 + 8*n + 4 + 8 + 8 + 4); e.N() != want || int64(buf.Len()) != want {
		t.Fatalf("N = %d, buffer %d, want %d", e.N(), buf.Len(), want)
	}
	full := buf.Bytes()

	d := Open(bytes.NewReader(full), "TEST1", errTest)
	u8, u32, u64, f64, blob := d.U8(), d.U32(), d.U64(), d.F64(), d.Blob(4)
	xs := Floats[float64](d, n, 8)
	narrowed, widened, words := Floats[float64](d, 1, 4), Floats[float32](d, 1, 8), Words[int32](d, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if u8 != 7 || u32 != 0xdeadbeef || u64 != 1<<40 || f64 != -2.5 || string(blob) != "blob" ||
		narrowed[0] != float64(float32(0.1)) || widened[0] != 0.25 || words[0] != -1 || words[1] != 2 {
		t.Fatalf("decoded %d %x %d %v %q %v %v %v", u8, u32, u64, f64, blob, narrowed, widened, words)
	}
	if len(xs) != n || cap(xs) != n || xs[n-1] != 7 {
		t.Fatalf("slab len %d cap %d, want %d", len(xs), cap(xs), n)
	}

	full[0] ^= 1
	d = Open(bytes.NewReader(full), string(full[:5]), errTest)
	io.Copy(io.Discard, io.LimitReader(d, int64(len(full)-9)))
	if err := d.Close(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("magic outside the checksum: err = %v", err)
	}
}

// TestDecoderErrors: a wrong magic fails with the sentinel itself; any
// other failure wraps the sentinel and ErrBadFormat and sticks, making
// every later read a no-op.
func TestDecoderErrors(t *testing.T) {
	if err := Open(bytes.NewReader([]byte("TEST2")), "TEST1", errTest).Close(); err != errTest {
		t.Fatalf("wrong magic: err = %v, want the sentinel itself", err)
	}
	d := Open(bytes.NewReader([]byte{1, 2}), "", errTest)
	if v := d.U32(); v != 0 {
		t.Fatalf("short read returned %d", v)
	}
	first := d.Err()
	if !errors.Is(first, errTest) || !errors.Is(first, ErrBadFormat) || !errors.Is(first, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v", first)
	}
	d.Failf("later failure")
	if d.U8() != 0 || Floats[float64](d, 1, 8) != nil || d.Blob(8) != nil || d.Close() != first {
		t.Fatal("reads after a failure were not no-ops")
	}
	d = Open(bytes.NewReader([]byte{0, 4, 0, 0}), "", errTest)
	if d.Blob(1<<10) != nil || d.Err() == nil {
		t.Fatal("blob over its bound accepted")
	}
}

// TestWriteFileAtomic: a failed save leaves the old artifact and no
// temporary file.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.ckpt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(w io.Writer) error { w.Write([]byte("torn")); return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the save error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("failed save replaced the artifact: %q", got)
	}
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write([]byte("new")); return err }); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if got, _ := os.ReadFile(path); err != nil || len(entries) != 1 || string(got) != "new" {
		t.Fatalf("after a save: %q, directory %v %v", got, entries, err)
	}
}
