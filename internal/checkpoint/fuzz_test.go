package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/stats"
)

// rawSection builds one on-disk parameter section (nameLen, name, elems,
// data, section CRC) for hand-crafted corpus entries.
func rawSection(name string, data []float64) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	for _, x := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzCheckpointLoad throws arbitrary bytes at the v2 parser: Load and
// Verify must reject damage with an error, never panic or over-allocate,
// and a byte-identical re-read of an accepted file must succeed again.
// The same bytes, committed to a memory tier under a manifest entry of
// their own size, must restore exactly when Load accepts them and fail
// when it does not.
func FuzzCheckpointLoad(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.ckpt")
	if err := Save(nn.NewMLP(stats.NewRNG(1), []int{4, 8, 3}, autograd.Tanh), seedPath); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Truncations: mid-header, mid-section, just shy of the trailing CRC.
	f.Add(valid[:6])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-2])
	// Bad magic.
	bm := append([]byte(nil), valid...)
	bm[0] ^= 0xFF
	f.Add(bm)
	// Flipped whole-file CRC and flipped payload byte.
	fc := append([]byte(nil), valid...)
	fc[len(fc)-1] ^= 0x01
	f.Add(fc)
	fp := append([]byte(nil), valid...)
	fp[len(fp)/2] ^= 0x55
	f.Add(fp)
	// Duplicate parameter: the same section twice under one header.
	dup := append([]byte(nil), magic...)
	dup = binary.LittleEndian.AppendUint32(dup, 2)
	sec := rawSection("w", []float64{1.5, -2.25})
	dup = append(dup, sec...)
	dup = append(dup, sec...)
	dup = binary.LittleEndian.AppendUint32(dup, crc32.ChecksumIEEE(dup))
	f.Add(dup)
	// Oversized element count pointing past the end of the file.
	huge := append([]byte(nil), magic...)
	huge = binary.LittleEndian.AppendUint32(huge, 1)
	huge = binary.LittleEndian.AppendUint16(huge, 1)
	huge = append(huge, 'w')
	huge = binary.LittleEndian.AppendUint32(huge, math.MaxUint32)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		path := filepath.Join(t.TempDir(), "f.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(path); err != nil {
			// Structural damage: Load must reject it too.
			m := nn.NewMLP(stats.NewRNG(9), []int{4, 8, 3}, autograd.Tanh)
			if lerr := Load(m, path); lerr == nil {
				t.Fatalf("Verify rejected (%v) but Load accepted", err)
			}
			return
		}
		m := nn.NewMLP(stats.NewRNG(9), []int{4, 8, 3}, autograd.Tanh)
		loadErr := Load(m, path)
		if loadErr == nil {
			// Accepted once must mean accepted again: the format has no
			// hidden state.
			if err := Load(m, path); err != nil {
				t.Fatalf("second load of accepted file failed: %v", err)
			}
		}
		restored := nn.NewMLP(stats.NewRNG(9), []int{4, 8, 3}, autograd.Tanh)
		_, restoreErr := memStoreHolding(t, data).Restore(restored)
		switch {
		case (loadErr == nil) != (restoreErr == nil):
			t.Fatalf("Load error %v but memory-tier Restore error %v", loadErr, restoreErr)
		case restoreErr == nil:
			mp, rp := m.Params(), restored.Params()
			for i := range mp {
				if !mp[i].Value.Data.Equal(rp[i].Value.Data, 0) {
					t.Fatalf("Restore and Load disagree on %s", mp[i].Name)
				}
			}
		}
	})
}

// memStoreHolding returns a one-tier memory store whose only version is
// data, committed under a manifest entry of data's size.
func memStoreHolding(t *testing.T, data []byte) *Store {
	t.Helper()
	s := NewMemStore([]string{"mem"}, 1)
	if err := s.writeBytes(s.VersionPath(0, 1), data); err != nil {
		t.Fatal(err)
	}
	var crc uint32
	if len(data) >= 4 {
		crc = binary.LittleEndian.Uint32(data[len(data)-4:])
	}
	s.manifests[0][1] = manifestEntry{Version: 1, File: versionFile(1), Bytes: int64(len(data)), CRC: crc}
	return s
}
