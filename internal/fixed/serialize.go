package fixed

import (
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
)

// qfixMagic identifies a serialised fixed-point monitor (QFIX01): the
// magic, the monitor geometry, every instance's quantised parameters,
// the centroid state and the drift state machine, all as exact Q16.16
// words — integer state round-trips bit-for-bit by construction. The
// artifact is covered by a ckpt CRC32 footer like every other wire
// format in this repository, so corruption fails loudly at load.
//
// This is what makes a Q16.16 fleet member checkpointable and therefore
// migratable: the float Monitor ships as an OSELM3 artifact, the
// quantised port ships as QFIX01, and the fleet container's member-kind
// byte says which decoder to use.
const qfixMagic = "QFIX01"

// ErrBadFormat reports a stream that is not a serialised fixed-point
// monitor, or one that is truncated or corrupt.
var ErrBadFormat = fmt.Errorf("fixed: not a serialised fixed-point monitor: %w", ckpt.ErrBadFormat)

// Sanity bounds so a corrupt header fails fast instead of reading
// towards an absurd shape.
const (
	maxLoadDim         = 1 << 20
	maxLoadClasses     = 1 << 16
	maxLoadMatrixElems = 1 << 26
	maxLoadEvents      = 1 << 24
)

// Save serialises the monitor's complete state to w. The artifact is a
// sample-boundary snapshot: loading it and feeding the same subsequent
// samples produces bit-identical results to never having saved, because
// every retained word is an integer written verbatim (compute staging —
// h, recon, batch buffers — is rebuilt at load and never carries state
// across samples).
func (mon *Monitor) Save(w io.Writer) error {
	e := ckpt.NewEncoder(w, qfixMagic)
	e.U32(uint32(mon.dims))
	e.U32(uint32(mon.window))
	e.U32(uint32(len(mon.instances)))
	e.U32(uint32(mon.thetaError))
	e.U32(uint32(mon.thetaDrift))
	for _, inst := range mon.instances {
		e.U32(uint32(inst.inputs))
		e.U32(uint32(inst.hidden))
		e.U32(uint32(inst.sat))
		ckpt.PutWords(e, inst.w)
		ckpt.PutWords(e, inst.bias)
		ckpt.PutWords(e, inst.beta)
	}
	for c := range mon.instances {
		ckpt.PutWords(e, mon.trainCor[c])
		ckpt.PutWords(e, mon.cor[c])
		e.U32(uint32(mon.num[c]))
	}
	flags := byte(0)
	if mon.check {
		flags |= 1
	}
	if mon.pending {
		flags |= 2
	}
	e.U8(flags)
	e.U32(uint32(mon.win))
	e.U32(uint32(mon.dist))
	e.U64(uint64(mon.samples))
	e.U32(uint32(len(mon.events)))
	for _, ev := range mon.events {
		e.U64(uint64(ev))
	}
	e.U32(uint32(mon.sat))
	return e.Finish()
}

// LoadMonitor deserialises a monitor written by Save. It is immediately
// ready to Process; operation counting (SetOps) and batch staging are
// reattached or rebuilt lazily by the caller as needed.
func LoadMonitor(r io.Reader) (*Monitor, error) {
	d := ckpt.Open(r, qfixMagic, ErrBadFormat)
	dims, window, classes := d.U32(), d.U32(), d.U32()
	if d.Err() == nil && (dims == 0 || dims > maxLoadDim || window > maxLoadDim || classes == 0 || classes > maxLoadClasses) {
		d.Failf("implausible geometry dims=%d window=%d classes=%d", dims, window, classes)
	}
	mon := &Monitor{
		dims:       int(dims),
		window:     int(window),
		thetaError: Q(d.U32()),
		thetaDrift: Q(d.U32()),
	}
	// Per-class state is appended as it decodes: the header alone sizes
	// nothing.
	for c := uint32(0); c < classes && d.Err() == nil; c++ {
		mon.instances = append(mon.instances, loadInstance(d, c, dims))
	}
	for c := uint32(0); c < classes && d.Err() == nil; c++ {
		mon.trainCor = append(mon.trainCor, ckpt.Words[Q](d, uint64(dims)))
		mon.cor = append(mon.cor, ckpt.Words[Q](d, uint64(dims)))
		mon.num = append(mon.num, int32(d.U32()))
	}
	flags := d.U8()
	mon.check = flags&1 != 0
	mon.pending = flags&2 != 0
	mon.win = int(d.U32())
	mon.dist = Q(d.U32())
	mon.samples = int(d.U64())
	nEvents := d.U32()
	if nEvents > maxLoadEvents {
		d.Failf("implausible event count %d", nEvents)
	}
	for i := uint32(0); i < nEvents && d.Err() == nil; i++ {
		mon.events = append(mon.events, int(d.U64()))
	}
	mon.sat = int(d.U32())
	if err := d.Close(); err != nil {
		return nil, err
	}
	return mon, nil
}

// loadInstance decodes class c's autoencoder, whose input width must be
// the monitor's dims. Its compute staging is sized only once its slabs
// have arrived. Nil on failure.
func loadInstance(d *ckpt.Decoder, c, dims uint32) *Autoencoder {
	inputs, hidden, sat := d.U32(), d.U32(), d.U32()
	n := uint64(hidden) * uint64(inputs)
	if d.Err() == nil && (inputs != dims || hidden == 0 || hidden > maxLoadDim || n > maxLoadMatrixElems) {
		d.Failf("instance %d: implausible shape %dx%d", c, inputs, hidden)
	}
	w := ckpt.Words[Q](d, n)
	bias := ckpt.Words[Q](d, uint64(hidden))
	beta := ckpt.Words[Q](d, n)
	if d.Err() != nil {
		return nil
	}
	return &Autoencoder{
		inputs: int(inputs),
		hidden: int(hidden),
		w:      w,
		bias:   bias,
		beta:   beta,
		h:      make([]Q, hidden),
		recon:  make([]Q, inputs),
		sat:    int(sat),
	}
}

// Save serialises the stream's wrapped monitor (the stream itself holds
// only compute staging, rebuilt by LoadStream).
func (s *Stream) Save(w io.Writer) error { return s.mon.Save(w) }

// LoadStream deserialises a fixed-point streaming stage written by
// Stream.Save, immediately ready to Process.
func LoadStream(r io.Reader) (*Stream, error) {
	mon, err := LoadMonitor(r)
	if err != nil {
		return nil, err
	}
	return NewStream(mon), nil
}
