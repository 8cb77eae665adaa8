package oselm

import (
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/mat"
)

// Precision identifies a numeric backend: the element width model
// state is stored and — since the precision refactor — computed at.
// It doubles as the on-wire float width for saved models.
type Precision byte

const (
	// Float64 is the full-precision backend (and exact round-trip wire
	// format), the historical default.
	Float64 Precision = 0
	// Float32 halves weight memory and artifact size for 32-bit edge
	// deployment at the cost of ~7 decimal digits; the paper's Pico port
	// stores its weights this way. As a compute precision it applies to
	// the inference-side state only — RLS training keeps P at float64.
	Float32 Precision = 1
	// Fixed16 is the Q16.16 fixed-point backend (internal/fixed) for
	// FPU-less targets. It is inference-only: models are built by
	// quantising a trained float model, never trained at this width, and
	// it is not a wire format.
	Fixed16 Precision = 2
)

// Bytes returns the element width in bytes.
func (p Precision) Bytes() int {
	if p == Float64 {
		return 8
	}
	return 4 // Float32 and Fixed16 are both 32-bit words
}

// String implements fmt.Stringer with the spellings the driftbench
// -precision flag accepts.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "f64"
	case Float32:
		return "f32"
	case Fixed16:
		return "q16"
	default:
		return fmt.Sprintf("Precision(%d)", byte(p))
	}
}

// ParsePrecision maps the driftbench flag spellings back to a
// Precision, listing the valid set in the error so callers can surface
// it verbatim as a usage message.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return Float64, nil
	case "f32", "float32":
		return Float32, nil
	case "q16", "fixed16":
		return Fixed16, nil
	}
	return 0, fmt.Errorf("unknown precision %q (valid: f64, f32, q16)", s)
}

// magic identifies a serialised OS-ELM model: the wire-precision and
// compute-precision bytes, the configuration and the state slabs, then
// a CRC32 footer (see internal/ckpt) so corruption fails loudly at load
// time.
const magic = "OSELM3"

// ErrBadFormat reports a stream that is not a serialised model of the
// current version, or one that is truncated or corrupt.
var ErrBadFormat = fmt.Errorf("oselm: not a serialised OS-ELM model: %w", ckpt.ErrBadFormat)

// Sanity bounds on deserialised dimensions: large enough for any model
// this library can usefully run, small enough that a bit-flipped header
// fails fast instead of reading towards an absurd shape.
const (
	maxLoadDim         = 1 << 16
	maxLoadMatrixElems = 1 << 26
)

// Save serialises the model (random projection, learned state and
// configuration) to w in the versioned little-endian format: the
// payload followed by a CRC32 footer. prec selects the on-wire element
// width; the model's compute precision is carried separately so a
// float32 model reloads as one. It returns the number of bytes written.
func (m *Model) Save(w io.Writer, prec Precision) (int64, error) {
	if prec != Float64 && prec != Float32 {
		return 0, fmt.Errorf("oselm: %v is not a wire precision (valid: f64, f32)", prec)
	}
	e := ckpt.NewEncoder(w, magic)
	e.U8(byte(prec))
	e.U8(byte(m.cfg.Precision))
	for _, v := range []uint32{
		uint32(m.cfg.Inputs), uint32(m.cfg.Hidden), uint32(m.cfg.Outputs),
		uint32(m.cfg.Activation), uint32(m.inits),
	} {
		e.U32(v)
	}
	for _, v := range []float64{m.cfg.Forgetting, m.cfg.Ridge, m.cfg.WeightScale} {
		e.F64(v)
	}
	width := prec.Bytes()
	m.net.save(e, width)
	ckpt.PutFloats(e, m.p.Data, width)
	err := e.Finish()
	return e.N(), err
}

// Load deserialises a model written by Save. The returned model is
// ready to predict and to continue sequential training. Every failure
// (truncation, checksum mismatch, implausible header) wraps ErrBadFormat
// so callers can classify corruption with errors.Is.
func Load(r io.Reader) (*Model, error) {
	d := ckpt.Open(r, magic, ErrBadFormat)
	m := loadBody(d)
	if err := d.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadBody parses the payload that follows the magic: the wire- and
// compute-precision bytes, the configuration, then the state slabs,
// which the model adopts. Nil on failure.
func loadBody(d *ckpt.Decoder) *Model {
	prec, compute := Precision(d.U8()), Precision(d.U8())
	for _, p := range [...]Precision{prec, compute} {
		if p != Float64 && p != Float32 {
			d.Fail(ErrBadFormat)
		}
	}
	var u [5]uint32
	for i := range u {
		u[i] = d.U32()
	}
	cfg := Config{
		Inputs:      int(u[0]),
		Hidden:      int(u[1]),
		Outputs:     int(u[2]),
		Activation:  Activation(u[3]),
		Forgetting:  d.F64(),
		Ridge:       d.F64(),
		WeightScale: d.F64(),
		Precision:   compute,
	}
	if d.Err() != nil {
		return nil
	}
	for _, n := range [...]uint32{u[0], u[1], u[2]} {
		if n == 0 || n > maxLoadDim {
			d.Failf("implausible dimension %d", n)
		}
	}
	h := uint64(u[1])
	for _, n := range [...]uint64{h * uint64(u[0]), h * uint64(u[2]), h * h} {
		if n > maxLoadMatrixElems {
			d.Failf("implausible matrix size %d", n)
		}
	}
	c, err := cfg.withDefaults()
	d.Fail(err)
	width := prec.Bytes()
	m := &Model{cfg: c, inits: int(u[4])}
	if c.Precision == Float32 {
		m.net = loadNet(d, &f32Kernels, c, width)
	} else {
		m.net = loadNet(d, &f64Kernels, c, width)
	}
	p := ckpt.Floats[float64](d, h*h, width)
	if d.Err() != nil {
		return nil
	}
	m.p = mat.NewFromData(c.Hidden, c.Hidden, p)
	m.initScratch()
	return m
}

// Save serialises an autoencoder: the score metric followed by its
// model artifact, the whole wrapped in an outer CRC32 footer so the
// metric field — which precedes the model's own checksummed region — is
// covered too.
func (a *Autoencoder) Save(w io.Writer, prec Precision) (int64, error) {
	e := ckpt.NewEncoder(w, "")
	e.U32(uint32(a.metric))
	if _, err := a.model.Save(e, prec); err != nil {
		return e.N(), err
	}
	err := e.Finish()
	return e.N(), err
}

// LoadAutoencoder deserialises an autoencoder written by Save.
func LoadAutoencoder(r io.Reader) (*Autoencoder, error) {
	d := ckpt.Open(r, "", ErrBadFormat)
	metric := ScoreMetric(d.U32())
	if metric > L2Norm {
		d.Failf("unknown score metric %d", metric)
	}
	var m *Model
	if d.Err() == nil {
		var err error
		m, err = Load(d)
		d.Fail(err)
	}
	if d.Err() == nil && m.cfg.Inputs != m.cfg.Outputs {
		d.Failf("serialised model is not an autoencoder")
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return &Autoencoder{
		model:  m,
		metric: metric,
		recon:  make([]float64, m.cfg.Inputs),
	}, nil
}
