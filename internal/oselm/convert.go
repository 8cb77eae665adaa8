package oselm

import "fmt"

// ConvertPrecision returns a new model computing at precision p whose
// inference block is the narrowed image of m's: W, b and β are
// converted to the target element type, while the RLS
// inverse-covariance P — float64 at every precision — is copied bit for
// bit, together with the sequential-init counter and the watchdog
// phase. This is the model half of a runtime precision demotion: the
// caller keeps m aside as the retained origin, runs the converted twin,
// and promotion is simply resuming m — nothing is widened back, so the
// origin stays bit-exact.
//
// The only conversion is Float64 → Float32; Fixed16 is reached by
// quantising through internal/fixed. m is not mutated.
func (m *Model) ConvertPrecision(p Precision) (*Model, error) {
	if p == m.cfg.Precision {
		return nil, fmt.Errorf("oselm: ConvertPrecision to the current precision %v", p)
	}
	if m.cfg.Precision != Float64 || p != Float32 {
		return nil, fmt.Errorf("oselm: cannot convert %v to %v: only f64 → f32 is supported (quantise to q16 via internal/fixed)", m.cfg.Precision, p)
	}
	cfg := m.cfg
	cfg.Precision = p
	w, bias, beta := m.net.weights()
	nm := &Model{
		cfg:      cfg,
		net:      build(cfg, w, bias, beta),
		p:        m.p.Clone(),
		inits:    m.inits,
		wdCount:  m.wdCount,
		wdResets: m.wdResets,
	}
	nm.initScratch()
	return nm, nil
}

// ConvertPrecision returns the autoencoder's reduced-precision twin:
// the model converted (see Model.ConvertPrecision) under the same score
// metric. The receiver is not mutated.
func (a *Autoencoder) ConvertPrecision(p Precision) (*Autoencoder, error) {
	nm, err := a.model.ConvertPrecision(p)
	if err != nil {
		return nil, err
	}
	return &Autoencoder{
		model:  nm,
		metric: a.metric,
		recon:  make([]float64, nm.cfg.Inputs),
	}, nil
}
