package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/fixed"
	"edgedrift/internal/fleet"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/pool"
	"edgedrift/internal/rng"
)

// le lays vals out back to back in little-endian binary.
func le(vals ...any) []byte {
	var buf bytes.Buffer
	for _, v := range vals {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestTinyHeaderAllocation holds every loader to the codec's allocation
// rule: a header that declares the largest shape its format accepts,
// followed by no body, fails as a bad format having allocated less than
// 1 MiB. Loaders that sized their state from the header first asked
// for hundreds of MiB (2 GiB for the 66-byte MULTI2 header).
func TestTinyHeaderAllocation(t *testing.T) {
	m, err := model.New(model.Config{Classes: 2, Inputs: 1 << 13, Hidden: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	loadFleet := func(r io.Reader) error {
		return fleet.New(fleet.Config{}).Load(r, func(_ string, _ byte, r io.Reader) (core.Streaming, error) {
			return fixed.LoadStream(r)
		})
	}
	// The largest plausible OS-ELM shape, H = D = O = 2¹³, puts every
	// matrix at the 2²⁶-element bound; the QFIX01 instance is 2¹²×2¹².
	oselmHdr := le([]byte("OSELM3"), []byte{0, 0}, []uint32{1 << 13, 1 << 13, 1 << 13, 0, 0}, []float64{1, 0.01, 1})
	qfixHdr := le([]byte("QFIX01"), []uint32{1 << 12, 0, 1, 0, 0, 1 << 12, 1 << 12, 0})
	for _, c := range []struct {
		name   string
		load   func(io.Reader) error
		header []byte
	}{
		{"OSELM3", func(r io.Reader) error { _, err := oselm.Load(r); return err }, oselmHdr},
		{"autoencoder", func(r io.Reader) error { _, err := oselm.LoadAutoencoder(r); return err }, le(uint32(0), oselmHdr)},
		{"MULTI2", func(r io.Reader) error { _, err := model.Load(r); return err }, le([]byte("MULTI2"), []uint32{1, 0}, oselmHdr)},
		{"EDDET3", func(r io.Reader) error { _, err := core.LoadState(r, m); return err },
			le([]byte("EDDET3"), []uint32{2, 1 << 13, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, make([]float64, 8))},
		{"QFIX01", func(r io.Reader) error { _, err := fixed.LoadStream(r); return err }, qfixHdr},
		{"POOL1", (&pool.Stage{}).Load, le([]byte("POOL1"), uint32(1), 0.0, uint32(1<<28))},
		{"FLEET4", loadFleet, le([]byte("FLEET4"), []uint32{1, 1}, []byte("a"), uint8(1), uint32(0), []uint64{0, 1 << 40}, qfixHdr)},
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := c.load(bytes.NewReader(c.header))
		runtime.ReadMemStats(&ms1)
		if !errors.Is(err, ckpt.ErrBadFormat) {
			t.Errorf("%s: err = %v, want ckpt.ErrBadFormat", c.name, err)
		}
		got := ms1.TotalAlloc - ms0.TotalAlloc
		if got >= 1<<20 {
			t.Errorf("%s: a %d-byte header allocated %d bytes", c.name, len(c.header), got)
		}
		t.Logf("%s: %d-byte header, %d bytes allocated", c.name, len(c.header), got)
	}
}
