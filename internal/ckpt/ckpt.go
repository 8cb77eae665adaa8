// Package ckpt is the one codec behind every checksummed checkpoint
// format in the repository: OSELM3 and its autoencoder envelope
// (oselm), MULTI2 (model), EDDET3 (core), QFIX01 (fixed), POOL1 (pool)
// and FLEET4 with its member payloads (fleet). An artifact is its magic
// and little-endian fields followed by a 4-byte little-endian CRC32
// (IEEE) footer covering every byte from the magic onward, so a
// truncated or bit-flipped artifact shipped to a device fails loudly at
// load time instead of running with corrupt weights. Formats write
// through an Encoder and read through a Decoder (codec.go); Writer and
// Reader underneath them do the hashing.
//
// The writer and reader nest: when an outer format (the multi-instance
// model) streams an inner artifact (an OS-ELM instance) through its own
// hashing writer, the inner artifact's bytes — footer included — are
// covered by the outer checksum too.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// ErrChecksum reports an artifact whose CRC32 footer does not match
// its content: the artifact was truncated, bit-flipped, or otherwise
// corrupted between save and load.
var ErrChecksum = errors.New("ckpt: artifact checksum mismatch")

// Writer hashes everything written through it and can append the CRC32
// footer. It also counts bytes, replacing the ad-hoc counting writers
// the serialize paths used before.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

// NewWriter wraps w in a hashing, byte-counting writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, crc: crc32.NewIEEE()}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.crc.Write(p[:n])
	w.n += int64(n)
	return n, err
}

// N returns the number of bytes written through the writer, footer
// included once WriteFooter has run.
func (w *Writer) N() int64 { return w.n }

// WriteFooter appends the little-endian CRC32 of everything written so
// far. The footer bytes themselves are excluded from the writer's own
// hash (but an enclosing Writer hashes them normally, since they pass
// through its Write).
func (w *Writer) WriteFooter() error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w.crc.Sum32())
	n, err := w.w.Write(b[:])
	w.n += int64(n)
	return err
}

// Reader hashes everything read through it and can verify the CRC32
// footer against what was read.
type Reader struct {
	r   io.Reader
	crc hash.Hash32
}

// NewReader wraps r in a hashing reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, crc: crc32.NewIEEE()}
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.crc.Write(p[:n])
	return n, err
}

// VerifyFooter reads the 4-byte footer from the underlying stream
// (deliberately not folding it into this reader's own hash) and compares
// it with the hash of everything read so far. A short read or a mismatch
// returns an error wrapping ErrChecksum.
func (r *Reader) VerifyFooter() error {
	var b [4]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		return fmt.Errorf("%w: footer: %v", ErrChecksum, err)
	}
	want := binary.LittleEndian.Uint32(b[:])
	if got := r.crc.Sum32(); got != want {
		return fmt.Errorf("%w: computed %08x, footer says %08x", ErrChecksum, got, want)
	}
	return nil
}
