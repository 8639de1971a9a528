package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"scouts/internal/core"
)

// minimalScoutpack hand-assembles the smallest blob core.VerifyScoutpack
// accepts: the SCPK header and the two required sections, META and FRST,
// with placeholder payloads. The disk envelope checks the scoutpack's
// container, not the models inside it.
func minimalScoutpack() []byte {
	b := append([]byte("SCPK"), 1, 0, 0, 0)
	b = append(b, make([]byte, sha256.Size)...)
	b = binary.LittleEndian.AppendUint32(b, 2)
	for _, sec := range []struct{ tag, payload string }{{"META", "{}"}, {"FRST", "x"}} {
		b = append(b, sec.tag...)
		b = append(b, 0, 0, 0, 0)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(sec.payload)))
		b = append(b, sec.payload...)
		for len(b)%8 != 0 {
			b = append(b, 0)
		}
	}
	return sealScoutpackBytes(b)
}

// sealScoutpackBytes sets a scoutpack's checksum field (bytes 8..40) to
// the sha256 of everything after it, when the blob is long enough to
// have one.
func sealScoutpackBytes(b []byte) []byte {
	if len(b) >= 8+sha256.Size {
		sum := sha256.Sum256(b[8+sha256.Size:])
		copy(b[8:], sum[:])
	}
	return b
}

// sealPackFile returns a copy of a .pack file with both checksums
// recomputed: the scoutpack's own, and the "sha256:<hex>" the envelope
// meta records for the payload (overwritten in place, so the meta length
// is unchanged). Mutations then reach the meta decoder, the version check
// and the scoutpack section parser instead of dying at a checksum.
func sealPackFile(data []byte) []byte {
	b := bytes.Clone(data)
	if len(b) < 8 || string(b[:4]) != packEnvelopeMagic {
		return b
	}
	metaLen := int(binary.LittleEndian.Uint32(b[4:]))
	if metaLen < 0 || metaLen > len(b)-8 {
		return b
	}
	meta, payload := b[8:8+metaLen], b[8+metaLen:]
	sealScoutpackBytes(payload)
	if i := bytes.Index(meta, []byte("sha256:")); i >= 0 && len(meta)-i-7 >= 2*sha256.Size {
		sum := sha256.Sum256(payload)
		hex.Encode(meta[i+7:], sum[:])
	}
	return b
}

// FuzzPackEnvelope feeds arbitrary .pack files, resealed with fresh
// checksums, to decodePackFile at a requested version. It must never
// panic. A file it accepts carries a payload that passes
// core.VerifyScoutpack and a meta version equal to the requested one, and
// re-encoding the decoded Model (encodePackFile, what SaveStore writes)
// decodes to an equal Model.
func FuzzPackEnvelope(f *testing.F) {
	good := encodePackFile(Model{
		Version:   3,
		Team:      "PhyNet",
		TrainedAt: time.Date(2023, 11, 14, 22, 13, 20, 500, time.FixedZone("", 2*3600)),
		Snapshot:  minimalScoutpack(),
	})
	f.Add(good, uint16(3))
	f.Add(good, uint16(4))
	f.Add(good[:len(good)/2], uint16(3))
	f.Add(encodePackFile(Model{Version: 1, Snapshot: minimalScoutpack()}), uint16(1))
	f.Add([]byte("SDP1\xff\xff\xff\xff{}"), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, want uint16) {
		m, reason := decodePackFile(sealPackFile(data), int(want))
		if reason != "" {
			return
		}
		if err := core.VerifyScoutpack(m.Snapshot); err != nil {
			t.Fatalf("accepted a file whose payload fails verification: %v", err)
		}
		if m.Version != int(want) {
			t.Fatalf("asked for v%d, accepted v%d", want, m.Version)
		}
		back, reason := decodePackFile(encodePackFile(m), int(want))
		if reason != "" {
			t.Fatalf("re-encoded model does not decode: %s", reason)
		}
		if back.Version != m.Version || back.Team != m.Team || !back.TrainedAt.Equal(m.TrainedAt) ||
			!bytes.Equal(back.Snapshot, m.Snapshot) {
			t.Fatalf("re-encoding changed the model: %+v -> %+v", m, back)
		}
	})
}
