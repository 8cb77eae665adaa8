package model

import (
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/oselm"
)

// multiMagic identifies a serialised multi-instance model: a header plus
// per-instance artifacts, then a whole-stream CRC32 footer covering the
// per-instance checksums too.
const multiMagic = "MULTI2"

// ErrBadFormat reports a stream that is not a serialised multi-instance
// model of the current version, or one that is truncated or corrupt.
var ErrBadFormat = fmt.Errorf("model: not a serialised multi-instance model: %w", ckpt.ErrBadFormat)

// Save serialises the model — configuration plus every instance — so a
// host-trained model can be shipped to a device (use oselm.Float32 for
// the halved deployment footprint).
func (m *Multi) Save(w io.Writer, prec oselm.Precision) (int64, error) {
	e := ckpt.NewEncoder(w, multiMagic)
	e.U32(uint32(m.cfg.Classes))
	for i, ae := range m.instances {
		if _, err := ae.Save(e, prec); err != nil {
			return e.N(), fmt.Errorf("model: instance %d: %w", i, err)
		}
	}
	err := e.Finish()
	return e.N(), err
}

// Load deserialises a model written by Save. Every failure wraps
// ErrBadFormat so callers can classify corruption with errors.Is.
func Load(r io.Reader) (*Multi, error) {
	d := ckpt.Open(r, multiMagic, ErrBadFormat)
	classes := d.U32()
	if classes == 0 || classes > 1<<20 {
		d.Fail(ErrBadFormat)
	}
	// Instances are appended as they decode: the class count alone
	// sizes nothing.
	var instances []*oselm.Autoencoder
	for i := uint32(0); i < classes && d.Err() == nil; i++ {
		ae, err := oselm.LoadAutoencoder(d)
		if err != nil {
			d.Fail(fmt.Errorf("model: instance %d: %w", i, err))
		}
		instances = append(instances, ae)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	c0 := instances[0].Model().Config()
	for i, ae := range instances[1:] {
		if ci := ae.Model().Config(); ci.Inputs != c0.Inputs {
			return nil, fmt.Errorf("%w: instance %d dimension %d differs from %d", ErrBadFormat, i+1, ci.Inputs, c0.Inputs)
		}
	}
	return &Multi{
		cfg: Config{
			Classes:     len(instances),
			Inputs:      c0.Inputs,
			Hidden:      c0.Hidden,
			Forgetting:  c0.Forgetting,
			Ridge:       c0.Ridge,
			WeightScale: c0.WeightScale,
			Precision:   c0.Precision,
		},
		instances: instances,
		scores:    make([]float64, len(instances)),
	}, nil
}
