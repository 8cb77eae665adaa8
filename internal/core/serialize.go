package core

import (
	"errors"
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/model"
)

// detMagic identifies a serialised detector bundle: the configuration
// (the caller-pinned threshold overrides Config.ErrorThreshold /
// DriftThreshold included), centroids, counts and thresholds, then a
// CRC32 footer (see internal/ckpt).
const detMagic = "EDDET3"

// ErrBadFormat reports a stream that is not a serialised detector of the
// current version, or one that is truncated or corrupt.
var ErrBadFormat = fmt.Errorf("core: not a serialised detector: %w", ckpt.ErrBadFormat)

// SaveState serialises the calibrated detector state: configuration,
// centroids, counts and thresholds. The bound model is NOT included —
// pair it with model.(*Multi).Save so host and device agree on both
// halves. SaveState fails on an uncalibrated detector and on one that is
// mid-reconstruction (transient state is deliberately not persistable).
func (d *Detector) SaveState(w io.Writer) error {
	if !d.calibrated {
		return errors.New("core: SaveState before Calibrate")
	}
	if d.drift {
		return errors.New("core: SaveState during reconstruction")
	}
	e := ckpt.NewEncoder(w, detMagic)
	for _, v := range []uint32{
		uint32(d.classes), uint32(d.dims), uint32(d.cfg.Window),
		uint32(d.cfg.NSearch), uint32(d.cfg.NUpdate), uint32(d.cfg.NRecon),
		uint32(d.cfg.Distance), uint32(d.cfg.Update), boolU32(d.cfg.ResetModelOnDrift),
		boolU32(d.cfg.ResetWindowState), boolU32(d.cfg.AlwaysCheck),
		boolU32(d.check), uint32(d.win),
	} {
		e.U32(v)
	}
	for _, v := range []float64{
		d.cfg.ZDrift, d.cfg.ZError, d.cfg.EWMAGamma,
		d.thetaError, d.thetaDrift, d.dist,
		// The pinned-threshold overrides. finishReconstruction only
		// re-derives a threshold whose cfg pin is zero, so these decide
		// post-reconstruction behaviour and must survive a round trip.
		d.cfg.ErrorThreshold, d.cfg.DriftThreshold,
	} {
		e.F64(v)
	}
	for c := 0; c < d.classes; c++ {
		ckpt.PutFloats(e, d.trainCor[c], 8)
		ckpt.PutFloats(e, d.cor[c], 8)
		e.U32(uint32(d.num[c]))
		e.U32(uint32(d.baseNum[c]))
	}
	return e.Finish()
}

func boolU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// CheckpointState serialises the detector's calibrated state with the
// transient window machinery normalised away: the check gate closed,
// the window empty and the recent centroids back at their calibrated
// values. SaveState taken verbatim at a drift instant would freeze a
// full window (win == Window, check set) into the artifact — a detector
// restored from it could never close that window again and would wedge.
// The normalised image is what the model pool stores: restoring it
// drops the detector cleanly back into Monitoring under the thresholds
// it was running when the checkpoint was cut. The live detector is left
// bit-identical to before the call.
func (d *Detector) CheckpointState(w io.Writer) error {
	if !d.calibrated {
		return errors.New("core: CheckpointState before Calibrate")
	}
	if d.drift {
		return errors.New("core: CheckpointState during reconstruction")
	}
	savedCor := make([][]float64, len(d.cor))
	for c := range d.cor {
		savedCor[c] = append([]float64(nil), d.cor[c]...)
	}
	savedNum := append([]int(nil), d.num...)
	savedCheck, savedWin, savedDist := d.check, d.win, d.dist
	d.resetRecent()
	d.check, d.win = false, 0
	err := d.SaveState(w)
	for c := range d.cor {
		copy(d.cor[c], savedCor[c])
	}
	copy(d.num, savedNum)
	d.check, d.win, d.dist = savedCheck, savedWin, savedDist
	return err
}

// RestoreState adopts a SaveState/CheckpointState artifact into the
// live detector in place — thresholds, centroids, counts and window
// state — without rebinding the model pointer, so wrappers holding
// references to this detector (a Monitor, a Guard, a Hybrid) keep
// working. The artifact's structural configuration must match the
// detector's; lifetime diagnostics (samplesSeen, driftEvents, health
// counters) are deliberately kept, because a restore is an event in
// this detector's life, not a new detector. Any ongoing reconstruction
// is abandoned: the caller is adopting a fully-adapted state instead.
// On error the detector is unchanged.
func (d *Detector) RestoreState(r io.Reader) error {
	if !d.calibrated {
		return errors.New("core: RestoreState before Calibrate")
	}
	tmp, err := LoadState(r, d.model)
	if err != nil {
		return err
	}
	// Normalise the operational knobs that are host-local and not part
	// of the serialised structural identity.
	want := d.cfg
	got := tmp.cfg
	got.Guard, got.ClampLimit = want.Guard, want.ClampLimit
	if got != want {
		return fmt.Errorf("core: restore config mismatch: artifact %+v, detector %+v", tmp.cfg, d.cfg)
	}
	d.thetaError, d.thetaDrift = tmp.thetaError, tmp.thetaDrift
	for c := 0; c < d.classes; c++ {
		copy(d.trainCor[c], tmp.trainCor[c])
		copy(d.cor[c], tmp.cor[c])
	}
	copy(d.num, tmp.num)
	copy(d.baseNum, tmp.baseNum)
	d.check, d.win, d.dist = tmp.check, tmp.win, tmp.dist
	d.drift = false
	d.count = 0
	d.reconDists.Reset()
	d.reconScores.Reset()
	for c := range d.starve {
		d.starve[c] = 0
	}
	d.calibrated = true
	return nil
}

// LoadState deserialises detector state written by SaveState and binds
// it to the given model, which must match the saved class count and
// dimension. Every failure wraps ErrBadFormat so callers can classify
// corruption with errors.Is.
func LoadState(r io.Reader, m *model.Multi) (*Detector, error) {
	dec := ckpt.Open(r, detMagic, ErrBadFormat)
	var u [13]uint32
	for i := range u {
		u[i] = dec.U32()
	}
	var f [8]float64
	for i := range f {
		f[i] = dec.F64()
	}
	classes, dims := m.Classes(), m.Config().Inputs
	if dec.Err() == nil && u[0] != uint32(classes) {
		dec.Failf("core: model has %d classes, state has %d", classes, u[0])
	}
	if dec.Err() == nil && u[1] != uint32(dims) {
		dec.Failf("core: model dimension %d, state %d", dims, u[1])
	}
	// The shape is the model's from here on, so the loop below is
	// bounded by it, not by the header.
	var trainCor, cor [][]float64
	var num, baseNum []int
	for c := 0; c < classes && dec.Err() == nil; c++ {
		trainCor = append(trainCor, ckpt.Floats[float64](dec, uint64(dims), 8))
		cor = append(cor, ckpt.Floats[float64](dec, uint64(dims), 8))
		num = append(num, int(dec.U32()))
		baseNum = append(baseNum, int(dec.U32()))
	}
	if err := dec.Close(); err != nil {
		return nil, err
	}
	d, err := New(m, Config{
		Window:            int(u[2]),
		NSearch:           int(u[3]),
		NUpdate:           int(u[4]),
		NRecon:            int(u[5]),
		Distance:          DistanceKind(u[6]),
		Update:            CentroidUpdate(u[7]),
		ResetModelOnDrift: u[8] == 1,
		ResetWindowState:  u[9] == 1,
		AlwaysCheck:       u[10] == 1,
		ZDrift:            f[0],
		ZError:            f[1],
		EWMAGamma:         f[2],
		ErrorThreshold:    f[6],
		DriftThreshold:    f[7],
		Precision:         m.Precision(),
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	d.thetaError, d.thetaDrift, d.dist = f[3], f[4], f[5]
	d.check = u[11] == 1
	d.win = int(u[12])
	d.trainCor, d.cor, d.num, d.baseNum = trainCor, cor, num, baseNum
	d.calibrated = true
	d.initScoreBins()
	return d, nil
}
