package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/oselm"
)

// multiMagic identifies a serialised multi-instance model: a header plus
// per-instance artifacts, then a whole-stream CRC32 footer covering the
// per-instance checksums too.
var multiMagic = [6]byte{'M', 'U', 'L', 'T', 'I', '2'}

// ErrBadFormat reports a stream that is not a serialised multi-instance
// model of the current version, or one that is truncated or corrupt.
var ErrBadFormat = errors.New("model: not a serialised multi-instance model (or unsupported version)")

// Save serialises the model — configuration plus every instance — so a
// host-trained model can be shipped to a device (use oselm.Float32 for
// the halved deployment footprint).
func (m *Multi) Save(w io.Writer, prec oselm.Precision) (int64, error) {
	cw := ckpt.NewWriter(w)
	if _, err := cw.Write(multiMagic[:]); err != nil {
		return cw.N(), err
	}
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], uint32(m.cfg.Classes))
	if _, err := cw.Write(head[:]); err != nil {
		return cw.N(), err
	}
	for i, ae := range m.instances {
		if _, err := ae.Save(cw, prec); err != nil {
			return cw.N(), fmt.Errorf("model: instance %d: %w", i, err)
		}
	}
	if err := cw.WriteFooter(); err != nil {
		return cw.N(), err
	}
	return cw.N(), nil
}

// Load deserialises a model written by Save. Every failure wraps
// ErrBadFormat so callers can classify corruption with errors.Is.
func Load(r io.Reader) (*Multi, error) {
	var got [6]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return nil, badFormat(fmt.Errorf("load header: %w", err))
	}
	if got != multiMagic {
		return nil, ErrBadFormat
	}
	cr := ckpt.NewReader(r)
	cr.Fold(got[:])
	m, err := loadBody(cr)
	if err != nil {
		return nil, badFormat(err)
	}
	if err := cr.VerifyFooter(); err != nil {
		return nil, badFormat(err)
	}
	return m, nil
}

// badFormat wraps a load failure so it matches both ErrBadFormat and
// the underlying cause.
func badFormat(err error) error {
	if errors.Is(err, ErrBadFormat) {
		return err
	}
	return fmt.Errorf("model: corrupt artifact: %w: %w", ErrBadFormat, err)
}

// loadBody parses the payload that follows the magic.
func loadBody(r io.Reader) (*Multi, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	classes := int(binary.LittleEndian.Uint32(head[:]))
	if classes <= 0 || classes > 1<<20 {
		return nil, ErrBadFormat
	}
	m := &Multi{
		instances: make([]*oselm.Autoencoder, classes),
		scores:    make([]float64, classes),
	}
	for i := range m.instances {
		ae, err := oselm.LoadAutoencoder(r)
		if err != nil {
			return nil, fmt.Errorf("model: instance %d: %w", i, err)
		}
		m.instances[i] = ae
	}
	c0 := m.instances[0].Model().Config()
	m.cfg = Config{
		Classes:     classes,
		Inputs:      c0.Inputs,
		Hidden:      c0.Hidden,
		Forgetting:  c0.Forgetting,
		Ridge:       c0.Ridge,
		WeightScale: c0.WeightScale,
		Precision:   c0.Precision,
	}
	for i, ae := range m.instances[1:] {
		ci := ae.Model().Config()
		if ci.Inputs != c0.Inputs {
			return nil, fmt.Errorf("model: instance %d dimension %d differs from %d", i+1, ci.Inputs, c0.Inputs)
		}
	}
	return m, nil
}
