// Package checkpoint serializes model parameters to disk and restores
// them — the checkpoint traffic whose cost appears in the Blanchard
// study's I/O overhead, implemented as a real file format so training
// runs in this repository can stop and resume. On top of the single-file
// format, Store (store.go) keeps a versioned, manifest-indexed history
// across storage tiers (node-local NVMe, partner-node replica, GPFS)
// with asynchronous drain between tiers.
//
// Format (version 2):
//
//	[8]  magic "SUMCKPT2"
//	[4]  parameter count
//	per parameter (a "section"):
//	  [2] name length, name bytes
//	  [4] element count, elements as little-endian float64
//	  [4] crc32 of this section (name length through last element)
//	[4]  crc32 of everything before it
//
// The per-section checksums localize corruption: a flipped bit names the
// damaged parameter instead of condemning the whole file, which is what
// lets the tiered store refuse to drain a corrupt checkpoint and lets
// Verify report exactly which parameters survived.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"summitscale/internal/nn"
)

var magic = []byte("SUMCKPT2")

// hashWriter streams bytes to w while tracking the whole-file CRC and a
// resettable per-section CRC over the same bytes, so Save never builds
// the file in memory.
type hashWriter struct {
	w       io.Writer
	whole   uint32
	section uint32
	n       int64
}

func (h *hashWriter) Write(p []byte) (int, error) {
	n, err := h.w.Write(p)
	h.whole = crc32.Update(h.whole, crc32.IEEETable, p[:n])
	h.section = crc32.Update(h.section, crc32.IEEETable, p[:n])
	h.n += int64(n)
	return n, err
}

// Save writes m's parameters to path atomically: stream to a temp file,
// fsync it so the rename can't publish an unwritten file, then rename.
func Save(m nn.Module, path string) error {
	_, _, err := WriteFile(m, path)
	return err
}

// WriteFile is Save plus the written file's whole-file CRC and size, which
// the tiered store records in its manifest.
func WriteFile(m nn.Module, path string) (crc uint32, size int64, err error) {
	return writeCheckpoint(dirBackend{}, m, path)
}

// writeCheckpoint durably writes m's parameters to path through be and
// returns the file's whole-file CRC and size.
func writeCheckpoint(be backend, m nn.Module, path string) (crc uint32, size int64, err error) {
	params := m.Params()
	for _, p := range params {
		if len(p.Name) > 1<<15 {
			return 0, 0, fmt.Errorf("checkpoint: parameter name %q too long", p.Name)
		}
	}
	err = be.write(path, func(w io.Writer) error {
		var werr error
		crc, size, werr = encode(w, params)
		return werr
	})
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	return crc, size, nil
}

// encode streams params to w in the v2 format and returns the whole-file
// CRC and the bytes written.
func encode(w io.Writer, params []nn.Param) (crc uint32, size int64, err error) {
	h := &hashWriter{w: w}
	var scratch [8]byte
	chunk := make([]byte, 1<<15)
	put16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		_, werr := h.Write(scratch[:2])
		return werr
	}
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, werr := h.Write(scratch[:4])
		return werr
	}
	if _, err = h.Write(magic); err != nil {
		return 0, 0, fmt.Errorf("write: %w", err)
	}
	if err = put32(uint32(len(params))); err != nil {
		return 0, 0, fmt.Errorf("write: %w", err)
	}
	for _, p := range params {
		h.section = 0
		if err = put16(uint16(len(p.Name))); err != nil {
			return 0, 0, fmt.Errorf("write: %w", err)
		}
		if _, err = io.WriteString(h, p.Name); err != nil {
			return 0, 0, fmt.Errorf("write: %w", err)
		}
		data := p.Value.Data.Data()
		if err = put32(uint32(len(data))); err != nil {
			return 0, 0, fmt.Errorf("write: %w", err)
		}
		// Encode in chunks: the CRC update and the write both run over
		// long spans instead of 8 bytes at a time.
		for len(data) > 0 {
			n := len(chunk) / 8
			if n > len(data) {
				n = len(data)
			}
			for j := 0; j < n; j++ {
				binary.LittleEndian.PutUint64(chunk[8*j:], math.Float64bits(data[j]))
			}
			if _, err = h.Write(chunk[:8*n]); err != nil {
				return 0, 0, fmt.Errorf("write: %w", err)
			}
			data = data[n:]
		}
		// The section CRC covers nameLen..data; writing it below folds it
		// into the whole-file CRC but not into its own value.
		if err = put32(h.section); err != nil {
			return 0, 0, fmt.Errorf("write: %w", err)
		}
	}
	crc = h.whole
	if err = put32(crc); err != nil {
		return 0, 0, fmt.Errorf("write: %w", err)
	}
	return crc, h.n, nil
}

// Section is one parameter's record in a checkpoint file as seen by the
// structural parser: its name, element count, and whether the stored
// per-section CRC matches the bytes on disk.
type Section struct {
	Name  string
	Elems int
	OK    bool
	data  []float64
}

// parseSections walks the v2 layout and returns every section with its
// CRC verdict. Structural damage (bad magic, truncation, duplicate or
// oversized fields) is an error; a section whose bytes merely fail their
// checksum parses fine with OK=false, which is what localizes corruption.
func parseSections(buf []byte) ([]Section, error) {
	if len(buf) < len(magic)+8 {
		return nil, fmt.Errorf("checkpoint: file too small")
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if string(body[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("checkpoint: bad magic")
	}
	off := len(magic)
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4

	seen := map[string]bool{}
	// count is untrusted: size the slice by the sections the bytes can
	// hold (each takes at least 10), not by what the header claims.
	sections := make([]Section, 0, min(count, (len(body)-off)/10))
	for i := 0; i < count; i++ {
		start := off
		if off+2 > len(body) {
			return nil, fmt.Errorf("checkpoint: truncated at parameter %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nameLen+4 > len(body) {
			return nil, fmt.Errorf("checkpoint: truncated name at parameter %d", i)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		n := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+8*n+4 > len(body) {
			return nil, fmt.Errorf("checkpoint: truncated data for %q", name)
		}
		data := make([]float64, n)
		for j := range data {
			data[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
		stored := binary.LittleEndian.Uint32(body[off:])
		ok := crc32.ChecksumIEEE(body[start:off]) == stored
		off += 4
		if seen[name] {
			return nil, fmt.Errorf("checkpoint: duplicate parameter %q", name)
		}
		seen[name] = true
		sections = append(sections, Section{Name: name, Elems: n, OK: ok, data: data})
	}
	if off != len(body) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last parameter", len(body)-off)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		// Every section verified but the envelope doesn't: the header or a
		// stored CRC itself took the hit.
		for _, s := range sections {
			if !s.OK {
				return sections, nil
			}
		}
		return nil, fmt.Errorf("checkpoint: checksum mismatch")
	}
	return sections, nil
}

// Verify reports the per-parameter integrity of the checkpoint at path
// without needing a model to load into. The error covers structural
// damage only; localized corruption comes back as OK=false sections.
func Verify(path string) ([]Section, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return parseSections(buf)
}

// verifyBytes is the drain-side gate: any structural damage or failed
// section is an error naming the first casualty.
func verifyBytes(buf []byte) error {
	sections, err := parseSections(buf)
	if err != nil {
		return err
	}
	for _, s := range sections {
		if !s.OK {
			return fmt.Errorf("checkpoint: parameter %q corrupt (section checksum mismatch)", s.Name)
		}
	}
	return nil
}

// Load restores parameters into m, matching by name. Every parameter of m
// must be present in the file with the right element count; extra entries
// in the file are an error too, so saves and loads stay symmetric.
func Load(m nn.Module, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: read: %w", err)
	}
	return loadBytes(m, buf)
}

// loadBytes is Load over a checkpoint already in memory.
func loadBytes(m nn.Module, buf []byte) error {
	sections, err := parseSections(buf)
	if err != nil {
		return err
	}
	stored := make(map[string][]float64, len(sections))
	for _, s := range sections {
		if !s.OK {
			return fmt.Errorf("checkpoint: parameter %q corrupt (section checksum mismatch)", s.Name)
		}
		stored[s.Name] = s.data
	}

	params := m.Params()
	if len(params) != len(stored) {
		return fmt.Errorf("checkpoint: file has %d parameters, model has %d",
			len(stored), len(params))
	}
	for _, p := range params {
		data, ok := stored[p.Name]
		if !ok {
			return fmt.Errorf("checkpoint: parameter %q missing from file", p.Name)
		}
		dst := p.Value.Data.Data()
		if len(dst) != len(data) {
			return fmt.Errorf("checkpoint: parameter %q has %d elements, model wants %d",
				p.Name, len(data), len(dst))
		}
		copy(dst, data)
	}
	return nil
}
