package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
)

// fleetMagic identifies a fleet container: the magic, a member count,
// then each member in sorted-ID order as its ID, a one-byte member kind
// (discriminating member encodings so mixed-precision and degraded
// fleets round-trip), a length-prefixed cohort name, the member's u64
// merge fingerprint at save time, and a length-prefixed payload. Every
// member payload is written through its own nested ckpt.Encoder and
// carries its own CRC32 footer, and the whole container — member
// footers included — is covered by one outer footer. A flipped bit
// therefore fails twice: once at the damaged member, once at the
// container level, and the member ID in the error says which stream's
// state is unusable. The fingerprint is informational — a loader
// re-derives the live value from the decoded stage, which is what the
// cohort index uses — but it lets offline tooling group compatible
// members without decoding payloads.
const fleetMagic = "FLEET4"

// ErrBadFormat reports a stream that is not a serialised fleet of the
// current version, or one that is truncated or corrupt.
var ErrBadFormat = fmt.Errorf("fleet: not a serialised fleet: %w", ckpt.ErrBadFormat)

// ErrExportCollision reports a failed ExportMember whose rollback found
// the id re-registered: between the deregistration and the encode
// failure, Add (or an import) created a new member under the same id.
// The new member wins the registry slot; the exported member and its
// lifetime counters are gone from the fleet, which the caller must know
// about rather than discover as silently reset sample counts.
var ErrExportCollision = errors.New("fleet: export rollback collision: id re-registered during export")

// Sanity bounds so a corrupt header fails fast instead of reading
// towards an absurd size.
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
	e := ckpt.NewEncoder(w, fleetMagic)
	e.U32(uint32(len(ids)))
	var buf bytes.Buffer
	for _, id := range ids {
		buf.Reset()
		var kind byte
		var cohort string
		var fprint uint64
		inner := ckpt.NewEncoder(&buf, "")
		err := f.Do(id, func(s core.Streaming) error {
			var encErr error
			kind, encErr = enc(id, s, inner)
			return encErr
		})
		if err == nil {
			err = inner.Finish()
		}
		if err != nil {
			return fmt.Errorf("fleet: save %q: %w", id, err)
		}
		if m, merr := f.member(id); merr == nil {
			m.mu.Lock()
			cohort, fprint = m.cohort, m.fprint
			m.mu.Unlock()
		}
		e.Blob([]byte(id))
		e.U8(kind)
		e.Blob([]byte(cohort))
		e.U64(fprint)
		e.U64(uint64(buf.Len()))
		e.Write(buf.Bytes())
	}
	return e.Finish()
}

// Load reads a fleet container written by Save and registers every
// member into f via Add (typically f is fresh and empty; a duplicate ID
// fails). Any corruption — container or member level — fails with an
// error matching ErrBadFormat, naming the damaged member when one can
// be identified.
func (f *Fleet) Load(r io.Reader, dec DecodeFunc) error {
	d := ckpt.Open(r, fleetMagic, ErrBadFormat)
	count := d.U32()
	if count > maxLoadMembers {
		d.Failf("implausible member count %d", count)
	}
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		id := string(d.Blob(maxLoadIDLen))
		if d.Err() == nil && id == "" {
			d.Failf("empty member ID")
		}
		kind := d.U8()
		cohort := string(d.Blob(maxLoadIDLen))
		// The saved fingerprint is folded into the checksum but the live
		// value is re-derived from the decoded stage: the stage's own bits
		// are authoritative, not a label alongside them.
		d.U64()
		lim := &io.LimitedReader{R: d, N: int64(d.U64())}
		if d.Err() != nil {
			break
		}
		s, err := decodePayload(lim, id, kind, dec)
		if err == nil && lim.N != 0 {
			err = fmt.Errorf("%d payload bytes left unconsumed", lim.N)
		}
		if err != nil {
			d.Fail(fmt.Errorf("member %q: %w", id, err))
		} else if err := f.AddMember(id, s, MemberConfig{Cohort: cohort}); err != nil {
			return err
		}
	}
	return d.Close()
}

// decodePayload decodes one member payload: the stage dec reads, then
// the payload's own CRC32 footer.
func decodePayload(r io.Reader, id string, kind byte, dec DecodeFunc) (core.Streaming, error) {
	d := ckpt.Open(r, "", ErrBadFormat)
	s, err := dec(id, kind, d)
	d.Fail(err)
	return s, d.Close()
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
	e := ckpt.NewEncoder(&buf, "")
	kind, err = enc(id, m.stage, e)
	if err == nil {
		err = e.Finish()
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
	s, err := decodePayload(br, id, kind, dec)
	if err == nil && br.Len() != 0 {
		err = fmt.Errorf("%w: %d payload bytes left unconsumed", ErrBadFormat, br.Len())
	}
	if err != nil {
		return fmt.Errorf("fleet: import %q: %w", id, err)
	}
	return f.addMember(id, s, MemberConfig{Cohort: cohort}, samples, drifts)
}
