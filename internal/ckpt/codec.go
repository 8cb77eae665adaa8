package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// ErrBadFormat is the root of every format's bad-format sentinel: each
// package wraps it in its own ErrBadFormat, so errors.Is(err,
// ckpt.ErrBadFormat) classifies a failed load of any artifact.
var ErrBadFormat = errors.New("ckpt: bad format")

// chunk bounds how far a slab or blob read runs ahead of its input: the
// bytes arrive in pieces of at most chunk, and the destination grows only
// as they do.
const chunk = 32 << 10

var scratch = sync.Pool{New: func() any { return new([chunk]byte) }}

// Encoder writes an artifact: the magic, then little-endian fields,
// then the CRC32 footer. The first write error sticks; every later call
// is a no-op and Finish returns it.
type Encoder struct {
	w   *Writer
	b   [8]byte
	err error
}

// NewEncoder starts an artifact on w with the given magic (empty for a
// footer-only envelope).
func NewEncoder(w io.Writer, magic string) *Encoder {
	e := &Encoder{w: NewWriter(w)}
	io.WriteString(e, magic)
	return e
}

// Write implements io.Writer, so a nested artifact can be saved through
// the encoder and be covered by its footer.
func (e *Encoder) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// U8 writes one byte.
func (e *Encoder) U8(v byte) {
	e.b[0] = v
	e.Write(e.b[:1])
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.b[:], v)
	e.Write(e.b[:4])
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.b[:], v)
	e.Write(e.b[:])
}

// F64 writes a float64 as its little-endian IEEE bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Blob writes p behind a u32 length prefix.
func (e *Encoder) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.Write(p)
}

// N returns the bytes written so far, the footer included after Finish.
func (e *Encoder) N() int64 { return e.w.N() }

// Finish appends the footer and returns the first error of the
// artifact's writes.
func (e *Encoder) Finish() error {
	if e.err == nil {
		e.err = e.w.WriteFooter()
	}
	return e.err
}

// PutFloats writes xs in one Write as little-endian IEEE words of width
// bytes: 8 for float64, 4 for float32 (narrowing float64 elements).
func PutFloats[E ~float32 | ~float64](e *Encoder, xs []E, width int) {
	buf := make([]byte, width*len(xs))
	for i, v := range xs {
		if width == 4 {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(v)))
		} else {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(float64(v)))
		}
	}
	e.Write(buf)
}

// PutWords writes xs in one Write as little-endian 32-bit words.
func PutWords[E ~int32](e *Encoder, xs []E) {
	buf := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	e.Write(buf)
}

// Decoder reads an artifact written through an Encoder. Reads are
// sticky: after the first failure every read returns zero values, and
// Err and Close report that failure. Every error wraps the format's
// sentinel, so a loader never wraps errors itself.
//
// The allocation rule: a slab or blob read never allocates ahead of its
// input by more than what has already arrived (or one chunk), however
// large the length a header declares. A loader must still size no make
// of its own by a decoded field until Err is nil.
type Decoder struct {
	r        *Reader
	sentinel error
	b        [8]byte
	err      error
}

// Open starts decoding an artifact from r: it reads the magic (at most
// 8 bytes; empty for a footer-only envelope) into the checksum and
// fails with sentinel itself on a mismatch.
func Open(r io.Reader, magic string, sentinel error) *Decoder {
	d := &Decoder{r: NewReader(r), sentinel: sentinel}
	if got := d.b[:len(magic)]; d.read(got) && string(got) != magic {
		d.err = sentinel
	}
	return d
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err, wrapped in the sentinel, unless a failure is
// already recorded.
func (d *Decoder) Fail(err error) {
	if d.err != nil || err == nil {
		return
	}
	if !errors.Is(err, d.sentinel) {
		err = fmt.Errorf("%w: %w", d.sentinel, err)
	}
	d.err = err
}

// Failf records a formatted failure (see Fail).
func (d *Decoder) Failf(format string, args ...any) { d.Fail(fmt.Errorf(format, args...)) }

// Close verifies the footer and returns the first failure.
func (d *Decoder) Close() error {
	if d.err == nil {
		d.Fail(d.r.VerifyFooter())
	}
	return d.err
}

// Read implements io.Reader, so a nested artifact can be loaded from
// the decoder and be covered by its footer.
func (d *Decoder) Read(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	return d.r.Read(p)
}

func (d *Decoder) read(p []byte) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.Fail(err)
		return false
	}
	return true
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if !d.read(d.b[:1]) {
		return 0
	}
	return d.b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.read(d.b[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(d.b[:])
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.read(d.b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(d.b[:])
}

// F64 reads a float64 from its little-endian IEEE bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Blob reads a u32-length-prefixed byte string of at most max bytes.
func (d *Decoder) Blob(max uint32) []byte {
	n := d.U32()
	if n > max {
		d.Failf("implausible length %d", n)
	}
	var out, dst []byte
	d.slab(uint64(n), 1, func(p []byte) {
		out, dst = extend(out, len(p), uint64(n))
		copy(dst, p)
	})
	return out
}

// Floats reads n little-endian IEEE words of width bytes (8 or 4) into
// a new slice, converting each to E. Nil on failure.
func Floats[E ~float32 | ~float64](d *Decoder, n uint64, width int) []E {
	var out, dst []E
	d.slab(n, width, func(p []byte) {
		out, dst = extend(out, len(p)/width, n)
		if width == 4 {
			for i := range dst {
				dst[i] = E(math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])))
			}
		} else {
			for i := range dst {
				dst[i] = E(math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
			}
		}
	})
	return out
}

// Words reads n little-endian 32-bit words into a new slice. Nil on
// failure.
func Words[E ~int32](d *Decoder, n uint64) []E {
	var out, dst []E
	d.slab(n, 4, func(p []byte) {
		out, dst = extend(out, len(p)/4, n)
		for i := range dst {
			dst[i] = E(binary.LittleEndian.Uint32(p[4*i:]))
		}
	})
	return out
}

// slab hands the n·width bytes of a slab to put in pieces of at most
// chunk bytes, stopping at the first failed read.
func (d *Decoder) slab(n uint64, width int, put func([]byte)) {
	if n > math.MaxInt/uint64(width) {
		d.Failf("implausible slab of %d %d-byte words", n, width)
	}
	buf := scratch.Get().(*[chunk]byte)
	defer scratch.Put(buf)
	for left := n * uint64(width); left > 0; {
		p := buf[:min(left, chunk)]
		if !d.read(p) {
			return
		}
		put(p)
		left -= uint64(len(p))
	}
}

// extend lengthens s, a slab of n elements being read, by k and returns
// it with its new tail. The capacity at least doubles, so copies stay
// amortised, but never passes n: the slab never holds more than twice
// what has arrived.
func extend[E any](s []E, k int, n uint64) (all, tail []E) {
	l := len(s)
	if l+k > cap(s) {
		c := max(2*cap(s), l+k)
		if uint64(c) > n {
			c = int(n)
		}
		s = append(make([]E, 0, c), s...)
	}
	s = s[:l+k]
	return s, s[l:]
}

// WriteFile atomically writes an artifact to path: save fills a
// temporary file in the same directory, which is flushed to stable
// storage and only then renamed over path. A crash or power loss midway
// leaves the old artifact or the new one, never a torn file that would
// fail its checksum on the next boot.
func WriteFile(path string, save func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = save(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	return nil
}
