package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
)

// fleetMagic identifies a fleet container: the magic, a member count,
// then each member in sorted-ID order as its ID, a one-byte member kind
// (discriminating member encodings so mixed-precision and degraded
// fleets round-trip), a length-prefixed cohort name, the member's u64
// merge fingerprint at save time, and a length-prefixed payload. Every
// member payload is written through its own nested ckpt.Writer and
// carries its own CRC32 footer, and the whole container — member
// footers included — is covered by one outer footer. A flipped bit
// therefore fails twice: once at the damaged member, once at the
// container level, and the member ID in the error says which stream's
// state is unusable. The fingerprint is informational — a loader
// re-derives the live value from the decoded stage, which is what the
// cohort index uses — but it lets offline tooling group compatible
// members without decoding payloads.
var fleetMagic = [6]byte{'F', 'L', 'E', 'E', 'T', '4'}

// ErrBadFormat reports a stream that is not a serialised fleet of the
// current version, or one that is truncated or corrupt.
var ErrBadFormat = errors.New("fleet: not a serialised fleet (or corrupt artifact)")

// ErrExportCollision reports a failed ExportMember whose rollback found
// the id re-registered: between the deregistration and the encode
// failure, Add (or an import) created a new member under the same id.
// The new member wins the registry slot; the exported member and its
// lifetime counters are gone from the fleet, which the caller must know
// about rather than discover as silently reset sample counts.
var ErrExportCollision = errors.New("fleet: export rollback collision: id re-registered during export")

// Sanity bounds so a corrupt header fails as ErrBadFormat instead of
// demanding an absurd allocation.
const (
	maxLoadMembers = 1 << 20
	maxLoadIDLen   = 1 << 12
)

// EncodeFunc serialises one member's stage and reports the member-kind
// byte recorded alongside it. The fleet container is generic over the
// member type, so the caller supplies the encoding — the public Fleet
// wrapper maps Monitors to kind 0 and Q16.16 stages to kind 1.
type EncodeFunc func(id string, s core.Streaming, w io.Writer) (kind byte, err error)

// DecodeFunc reconstructs one member's stage from its payload, given
// the kind byte its encoder recorded.
// The reader is exactly the member's payload; reading past it fails.
type DecodeFunc func(id string, kind byte, r io.Reader) (core.Streaming, error)

// Save serialises the whole fleet to w in sorted-ID order (so identical
// fleets produce identical bytes). Each member is encoded while holding
// only that member's lock; streams are momentarily unblocked between
// members, so a snapshot taken under load is per-member consistent —
// every member's state is from a sample boundary — rather than a
// whole-fleet stop-the-world cut.
func (f *Fleet) Save(w io.Writer, enc EncodeFunc) error {
	ids := f.IDs()
	cw := ckpt.NewWriter(w)
	if _, err := cw.Write(fleetMagic[:]); err != nil {
		return err
	}
	if err := putU32(cw, uint32(len(ids))); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, id := range ids {
		buf.Reset()
		var kind byte
		var cohort string
		var fprint uint64
		inner := ckpt.NewWriter(&buf)
		err := f.Do(id, func(s core.Streaming) error {
			var encErr error
			kind, encErr = enc(id, s, inner)
			return encErr
		})
		if err != nil {
			return fmt.Errorf("fleet: save %q: %w", id, err)
		}
		if m, merr := f.member(id); merr == nil {
			m.mu.Lock()
			cohort, fprint = m.cohort, m.fprint
			m.mu.Unlock()
		}
		if err := inner.WriteFooter(); err != nil {
			return fmt.Errorf("fleet: save %q: %w", id, err)
		}
		if err := putU32(cw, uint32(len(id))); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, id); err != nil {
			return err
		}
		if _, err := cw.Write([]byte{kind}); err != nil {
			return err
		}
		if err := putU32(cw, uint32(len(cohort))); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, cohort); err != nil {
			return err
		}
		if err := putU64(cw, fprint); err != nil {
			return err
		}
		if err := putU64(cw, uint64(buf.Len())); err != nil {
			return err
		}
		if _, err := cw.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return cw.WriteFooter()
}

// Load reads a fleet container written by Save and registers every
// member into f via Add (typically f is fresh and empty; a duplicate ID
// fails). Any corruption — container or member level — fails with an
// error matching ErrBadFormat, naming the damaged member when one can
// be identified.
func (f *Fleet) Load(r io.Reader, dec DecodeFunc) error {
	var got [6]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return badFormat(fmt.Errorf("load header: %w", err))
	}
	if got != fleetMagic {
		return ErrBadFormat
	}
	cr := ckpt.NewReader(r)
	cr.Fold(got[:])
	count, err := getU32(cr)
	if err != nil {
		return badFormat(err)
	}
	if count > maxLoadMembers {
		return badFormat(fmt.Errorf("implausible member count %d", count))
	}
	for i := uint32(0); i < count; i++ {
		idLen, err := getU32(cr)
		if err != nil {
			return badFormat(err)
		}
		if idLen == 0 || idLen > maxLoadIDLen {
			return badFormat(fmt.Errorf("implausible ID length %d", idLen))
		}
		idBytes := make([]byte, idLen)
		if _, err := io.ReadFull(cr, idBytes); err != nil {
			return badFormat(err)
		}
		id := string(idBytes)
		var kind [1]byte
		if _, err := io.ReadFull(cr, kind[:]); err != nil {
			return badFormat(fmt.Errorf("member %q: %w", id, err))
		}
		clen, err := getU32(cr)
		if err != nil {
			return badFormat(fmt.Errorf("member %q: %w", id, err))
		}
		if clen > maxLoadIDLen {
			return badFormat(fmt.Errorf("member %q: implausible cohort length %d", id, clen))
		}
		cb := make([]byte, clen)
		if _, err := io.ReadFull(cr, cb); err != nil {
			return badFormat(fmt.Errorf("member %q: %w", id, err))
		}
		cohort := string(cb)
		// The saved fingerprint is folded into the checksum but the live
		// value is re-derived from the decoded stage: the stage's own bits
		// are authoritative, not a label alongside them.
		if _, err := getU64(cr); err != nil {
			return badFormat(fmt.Errorf("member %q: %w", id, err))
		}
		plen, err := getU64(cr)
		if err != nil {
			return badFormat(fmt.Errorf("member %q: %w", id, err))
		}
		lim := &io.LimitedReader{R: cr, N: int64(plen)}
		inner := ckpt.NewReader(lim)
		s, err := dec(id, kind[0], inner)
		if err != nil {
			return badFormat(fmt.Errorf("member %q: %w", id, err))
		}
		if err := inner.VerifyFooter(); err != nil {
			return badFormat(fmt.Errorf("member %q: %w", id, err))
		}
		if lim.N != 0 {
			return badFormat(fmt.Errorf("member %q: %d payload bytes left unconsumed", id, lim.N))
		}
		if err := f.AddMember(id, s, MemberConfig{Cohort: cohort}); err != nil {
			return err
		}
	}
	if err := cr.VerifyFooter(); err != nil {
		return badFormat(err)
	}
	return nil
}

// SaveFile atomically writes the fleet artifact to path (temp file,
// sync, rename — the same crash-safety contract as Monitor.SaveFile).
func (f *Fleet) SaveFile(path string, enc EncodeFunc) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: save %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := f.Save(tmp, enc); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fleet: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fleet: save %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("fleet: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a fleet artifact written by SaveFile into f.
func (f *Fleet) LoadFile(path string, dec DecodeFunc) error {
	fh, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fleet: load %s: %w", path, err)
	}
	defer fh.Close()
	if err := f.Load(fh, dec); err != nil {
		return fmt.Errorf("%w (%s)", err, path)
	}
	return nil
}

// ExportMember atomically deregisters one member and serialises its
// final state — the source half of a live stream migration. The member
// is deleted from the registry first (new batches fail with
// unknown-stream), then encoded under the member lock after any
// in-flight batch completes, so the payload is a sample-boundary
// snapshot and no sample can land on the member after its export. The
// payload carries its own ckpt CRC32 footer; samples/drifts are the
// lifetime counters and cohort is the cooperation group the importing
// fleet must carry over. If encoding fails, the member is re-registered
// and the fleet is unchanged.
func (f *Fleet) ExportMember(id string, enc EncodeFunc) (kind byte, cohort string, payload []byte, samples, drifts uint64, err error) {
	sh := f.shardOf(id)
	sh.mu.Lock()
	m, ok := sh.members[id]
	if !ok {
		sh.mu.Unlock()
		return 0, "", nil, 0, 0, fmt.Errorf("fleet: unknown stream %q", id)
	}
	delete(sh.members, id)
	sh.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	var buf bytes.Buffer
	cw := ckpt.NewWriter(&buf)
	kind, err = enc(id, m.stage, cw)
	if err == nil {
		err = cw.WriteFooter()
	}
	if err != nil {
		// Roll back: the member must survive a failed export. Taking the
		// shard lock while holding the member lock is safe — no path in
		// this package waits on a member lock while holding a shard lock.
		// If Add re-created the id while the member was deregistered, the
		// new member keeps the slot: overwriting it would vanish a live
		// stream, and dropping the new one would undo a registration the
		// caller was told succeeded. The exported member is retired
		// instead, and the collision is reported as a typed error so the
		// caller knows its lifetime counters did not survive the rollback.
		sh.mu.Lock()
		usurper, exists := sh.members[id]
		if !exists {
			sh.members[id] = m
		}
		sh.mu.Unlock()
		if exists {
			// The id was re-registered while the member was out of the
			// registry. The new member keeps the slot — overwriting it
			// would vanish a registration the caller was told succeeded —
			// so the exported member is retired and the collision reported
			// as a typed error: its lifetime counters did not survive.
			m.removed = true
			if m.cohort != "" {
				// Drop the retired member's cohort entry unless the new
				// member re-joined the same cohort (the index is keyed by
				// (cohort, id), so same-cohort removal would orphan the
				// new member from its group). Locking the new member while
				// holding m's lock is safe: m left the registry, so no
				// other path can hold its lock and wait on another member.
				usurper.mu.Lock()
				sameCohort := usurper.cohort == m.cohort
				usurper.mu.Unlock()
				if !sameCohort {
					f.cohortRemove(m.cohort, id)
				}
			}
			return 0, "", nil, 0, 0, fmt.Errorf("fleet: export %q: %w (samples=%d drifts=%d lost; encode error: %w)",
				id, ErrExportCollision, m.samples, m.drifts, err)
		}
		return 0, "", nil, 0, 0, fmt.Errorf("fleet: export %q: %w", id, err)
	}
	m.removed = true
	f.cohortRemove(m.cohort, id)
	return kind, m.cohort, buf.Bytes(), m.samples, m.drifts, nil
}

// ImportMember registers a member from an ExportMember payload — the
// target half of a live stream migration. The payload's CRC32 footer is
// verified before registration, and the member starts with the exported
// lifetime counters and cohort so the fleet-level roll-up neither loses
// nor double-counts samples across the move and the stream keeps
// cooperating with its group.
func (f *Fleet) ImportMember(id string, kind byte, cohort string, payload []byte, samples, drifts uint64, dec DecodeFunc) error {
	br := bytes.NewReader(payload)
	cr := ckpt.NewReader(br)
	s, err := dec(id, kind, cr)
	if err != nil {
		return badFormat(fmt.Errorf("import %q: %w", id, err))
	}
	if err := cr.VerifyFooter(); err != nil {
		return badFormat(fmt.Errorf("import %q: %w", id, err))
	}
	if br.Len() != 0 {
		return badFormat(fmt.Errorf("import %q: %d payload bytes left unconsumed", id, br.Len()))
	}
	return f.addMember(id, s, MemberConfig{Cohort: cohort}, samples, drifts)
}

// badFormat wraps a load failure so it matches both ErrBadFormat and
// the underlying cause (including ckpt.ErrChecksum).
func badFormat(err error) error {
	if errors.Is(err, ErrBadFormat) {
		return err
	}
	return fmt.Errorf("fleet: corrupt artifact: %w: %w", ErrBadFormat, err)
}

func putU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func getU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func putU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func getU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
