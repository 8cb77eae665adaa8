package oselm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
var magic = [6]byte{'O', 'S', 'E', 'L', 'M', '3'}

// ErrBadFormat reports a stream that is not a serialised model of the
// current version, or one that is truncated or corrupt.
var ErrBadFormat = errors.New("oselm: not a serialised OS-ELM model (or unsupported version)")

// Sanity bounds on deserialised dimensions: large enough for any model
// this library can usefully run, small enough that a bit-flipped header
// can never demand an absurd allocation before the checksum is checked.
const (
	maxLoadDim         = 1 << 16
	maxLoadMatrixElems = 1 << 26
)

func writeFloats(w io.Writer, prec Precision, xs []float64) error {
	if prec == Float32 {
		buf := make([]byte, 4*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(v)))
		}
		_, err := w.Write(buf)
		return err
	}
	buf := make([]byte, 8*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader, prec Precision, dst []float64) error {
	if prec == Float32 {
		buf := make([]byte, 4*len(dst))
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		return nil
	}
	buf := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func writeF64(w io.Writer, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, err := w.Write(buf[:])
	return err
}

func readF64(r io.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// Save serialises the model (random projection, learned state and
// configuration) to w in the versioned little-endian format: the
// payload followed by a CRC32 footer. prec selects the on-wire element
// width; the model's compute precision is carried separately so a
// float32 model reloads as one. It returns the number of bytes written.
func (m *Model) Save(w io.Writer, prec Precision) (int64, error) {
	cw := ckpt.NewWriter(w)
	if prec != Float64 && prec != Float32 {
		return 0, fmt.Errorf("oselm: %v is not a wire precision (valid: f64, f32)", prec)
	}
	if _, err := cw.Write(magic[:]); err != nil {
		return cw.N(), err
	}
	if _, err := cw.Write([]byte{byte(prec), byte(m.cfg.Precision)}); err != nil {
		return cw.N(), err
	}
	for _, v := range []uint32{
		uint32(m.cfg.Inputs), uint32(m.cfg.Hidden), uint32(m.cfg.Outputs),
		uint32(m.cfg.Activation), uint32(m.inits),
	} {
		if err := writeU32(cw, v); err != nil {
			return cw.N(), err
		}
	}
	for _, v := range []float64{m.cfg.Forgetting, m.cfg.Ridge, m.cfg.WeightScale} {
		if err := writeF64(cw, v); err != nil {
			return cw.N(), err
		}
	}
	for _, xs := range m.exportSlabs() {
		if err := writeFloats(cw, prec, xs); err != nil {
			return cw.N(), err
		}
	}
	if err := cw.WriteFooter(); err != nil {
		return cw.N(), err
	}
	return cw.N(), nil
}

// exportSlabs returns the persistent state in serialisation order
// (W, bias, β, P) as float64 slices. The float64 backend returns live
// views; the float32 backend materialises converted copies — Save is an
// export path, not a hot loop.
func (m *Model) exportSlabs() [][]float64 {
	if m.w32 == nil {
		return [][]float64{m.w.Data, m.bias, m.beta.Data, m.p.Data}
	}
	w := make([]float64, len(m.w32.Data))
	bias := make([]float64, len(m.bias32))
	beta := make([]float64, len(m.beta32.Data))
	mat.ConvertVec(w, m.w32.Data)
	mat.ConvertVec(bias, m.bias32)
	mat.ConvertVec(beta, m.beta32.Data)
	return [][]float64{w, bias, beta, m.p.Data}
}

// Load deserialises a model written by Save. The returned model is
// ready to predict and to continue sequential training. Every failure
// (truncation, checksum mismatch, implausible header) wraps ErrBadFormat
// so callers can classify corruption with errors.Is.
func Load(r io.Reader) (*Model, error) {
	var got [6]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return nil, badFormat(fmt.Errorf("load header: %w", err))
	}
	if got != magic {
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
	return fmt.Errorf("oselm: corrupt artifact: %w: %w", ErrBadFormat, err)
}

// loadBody parses the payload that follows the magic: the wire- and
// compute-precision bytes, then the configuration and state.
func loadBody(r io.Reader) (*Model, error) {
	var precs [2]byte
	if _, err := io.ReadFull(r, precs[:]); err != nil {
		return nil, err
	}
	prec, compute := Precision(precs[0]), Precision(precs[1])
	for _, p := range [...]Precision{prec, compute} {
		if p != Float64 && p != Float32 {
			return nil, ErrBadFormat
		}
	}
	var u [5]uint32
	for i := range u {
		v, err := readU32(r)
		if err != nil {
			return nil, err
		}
		u[i] = v
	}
	var f [3]float64
	for i := range f {
		v, err := readF64(r)
		if err != nil {
			return nil, err
		}
		f[i] = v
	}
	cfg := Config{
		Inputs:      int(u[0]),
		Hidden:      int(u[1]),
		Outputs:     int(u[2]),
		Activation:  Activation(u[3]),
		Forgetting:  f[0],
		Ridge:       f[1],
		WeightScale: f[2],
		Precision:   compute,
	}
	if err := checkLoadDims(cfg); err != nil {
		return nil, err
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("oselm: load config: %w", err)
	}
	m := newEmpty(c)
	if m.w32 == nil {
		for _, xs := range [][]float64{m.w.Data, m.bias, m.beta.Data, m.p.Data} {
			if err := readFloats(r, prec, xs); err != nil {
				return nil, fmt.Errorf("oselm: load weights: %w", err)
			}
		}
	} else {
		// Float32 backend: stage each slab through a float64 buffer, then
		// narrow into the owned float32 state. P stays float64.
		for _, dst := range [][]float32{m.w32.Data, m.bias32, m.beta32.Data} {
			buf := make([]float64, len(dst))
			if err := readFloats(r, prec, buf); err != nil {
				return nil, fmt.Errorf("oselm: load weights: %w", err)
			}
			mat.ConvertVec(dst, buf)
		}
		if err := readFloats(r, prec, m.p.Data); err != nil {
			return nil, fmt.Errorf("oselm: load weights: %w", err)
		}
	}
	m.inits = int(u[4])
	return m, nil
}

// checkLoadDims rejects deserialised dimensions no valid artifact can
// carry, so a corrupt header fails as ErrBadFormat instead of demanding
// a multi-gigabyte allocation.
func checkLoadDims(c Config) error {
	dims := [...]int{c.Inputs, c.Hidden, c.Outputs}
	for _, d := range dims {
		if d <= 0 || d > maxLoadDim {
			return fmt.Errorf("%w: implausible dimension %d", ErrBadFormat, d)
		}
	}
	for _, n := range [...]int{c.Hidden * c.Inputs, c.Hidden * c.Outputs, c.Hidden * c.Hidden} {
		if n > maxLoadMatrixElems {
			return fmt.Errorf("%w: implausible matrix size %d", ErrBadFormat, n)
		}
	}
	return nil
}

// newEmpty allocates a model without drawing random weights (they will
// be overwritten by a load). The configuration's compute precision
// decides which backend's state gets allocated.
func newEmpty(c Config) *Model {
	return alloc(c)
}

// Save serialises an autoencoder: the score metric followed by its
// model artifact, the whole wrapped in an outer CRC32 footer so the
// metric field — which precedes the model's own checksummed region — is
// covered too.
func (a *Autoencoder) Save(w io.Writer, prec Precision) (int64, error) {
	cw := ckpt.NewWriter(w)
	if err := writeU32(cw, uint32(a.metric)); err != nil {
		return cw.N(), err
	}
	if _, err := a.model.Save(cw, prec); err != nil {
		return cw.N(), err
	}
	if err := cw.WriteFooter(); err != nil {
		return cw.N(), err
	}
	return cw.N(), nil
}

// LoadAutoencoder deserialises an autoencoder written by Save.
func LoadAutoencoder(r io.Reader) (*Autoencoder, error) {
	cr := ckpt.NewReader(r)
	metric, err := readU32(cr)
	if err != nil {
		return nil, badFormat(fmt.Errorf("load metric: %w", err))
	}
	if metric > uint32(L2Norm) {
		return nil, fmt.Errorf("%w: unknown score metric %d", ErrBadFormat, metric)
	}
	m, err := Load(cr)
	if err != nil {
		return nil, err
	}
	if err := cr.VerifyFooter(); err != nil {
		return nil, badFormat(err)
	}
	if m.cfg.Inputs != m.cfg.Outputs {
		return nil, errors.New("oselm: serialised model is not an autoencoder")
	}
	return &Autoencoder{
		model:  m,
		metric: ScoreMetric(metric),
		recon:  make([]float64, m.cfg.Inputs),
	}, nil
}
