// The tiered store: a versioned checkpoint history across storage tiers
// (tier 0 is where training writes; deeper tiers are drained to in the
// background), each tier indexed by a crash-safe text manifest. Restore
// walks versions newest-first and tiers shallowest-first, verifying the
// manifest size, every per-parameter section CRC and the whole-file CRC
// before trusting a copy — a corrupt or torn copy in one tier falls
// through to the next instead of killing the job. The tiers live on a
// backend (backend.go): host directories (NewStore) or memory
// (NewMemStore).
package checkpoint

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"summitscale/internal/nn"
)

// manifestMagic heads every manifest file.
const manifestMagic = "SUMMANIFEST1"

// TierDir names one tier's directory ("nvme", "replica", "gpfs" in the
// platform-priced plans, but any names work). In a memory store, Dir is
// the tier's key prefix.
type TierDir struct {
	Name string
	Dir  string
}

// manifestEntry is one committed version in one tier.
type manifestEntry struct {
	Version int
	File    string
	Bytes   int64
	CRC     uint32
}

// Store is a multi-tier, versioned checkpoint store. All methods are
// safe for concurrent use; drains are serialized so tier directories
// never see two writers.
type Store struct {
	tiers  []TierDir
	be     backend
	retain int

	mu        sync.Mutex
	manifests []map[int]manifestEntry // per tier: version -> entry

	drainMu sync.Mutex // serializes tier-to-tier copies
	wg      sync.WaitGroup
	errMu   sync.Mutex
	errs    []error
}

// NewStore opens (or creates) a store over the tier directories, reading
// any existing manifests — reopening over the same directories after a
// crash resumes from whatever was durably committed. retain bounds how
// many versions each tier keeps (minimum 1).
func NewStore(tiers []TierDir, retain int) (*Store, error) {
	if len(tiers) == 0 {
		return nil, errors.New("checkpoint: store needs at least one tier")
	}
	s := newStore(tiers, dirBackend{}, retain)
	for i, t := range tiers {
		if err := os.MkdirAll(t.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint: tier %s: %w", t.Name, err)
		}
		m, err := s.readManifest(filepath.Join(t.Dir, "MANIFEST"))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: tier %s: %w", t.Name, err)
		}
		s.manifests[i] = m
	}
	return s, nil
}

// NewMemStore builds an empty store whose named tiers live in memory: a
// simulated tier hierarchy that makes every check a directory store
// makes, without touching the host disk. Its files end with the store.
// It panics without a tier name.
func NewMemStore(names []string, retain int) *Store {
	if len(names) == 0 {
		panic("checkpoint: memory store needs at least one tier")
	}
	tiers := make([]TierDir, len(names))
	for i, n := range names {
		// The index keeps two tiers of one name apart.
		tiers[i] = TierDir{Name: n, Dir: fmt.Sprintf("%d-%s", i, n)}
	}
	return newStore(tiers, newMemBackend(), retain)
}

// newStore builds a store whose tiers all start empty.
func newStore(tiers []TierDir, be backend, retain int) *Store {
	if retain < 1 {
		retain = 1
	}
	s := &Store{tiers: tiers, be: be, retain: retain, manifests: make([]map[int]manifestEntry, len(tiers))}
	for i := range s.manifests {
		s.manifests[i] = map[int]manifestEntry{}
	}
	return s
}

// Tiers returns the store's tier layout.
func (s *Store) Tiers() []TierDir { return s.tiers }

// versionFile is the canonical file name for a version within a tier.
func versionFile(version int) string { return fmt.Sprintf("v%08d.ckpt", version) }

// VersionPath returns where a version lives (or would live) in a tier:
// a file path in a directory store, a key in a memory store.
func (s *Store) VersionPath(tier, version int) string {
	return filepath.Join(s.tiers[tier].Dir, versionFile(version))
}

// Save commits m as version into tier 0 and prunes versions beyond the
// retention bound. version must increase across calls.
func (s *Store) Save(m nn.Module, version int) error {
	crc, size, err := writeCheckpoint(s.be, m, s.VersionPath(0, version))
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifests[0][version] = manifestEntry{Version: version, File: versionFile(version), Bytes: size, CRC: crc}
	s.pruneLocked(0)
	return s.writeManifestLocked(0)
}

// Drain copies version into tier dst from the shallowest tier that holds
// it, verifying the manifest size, every per-parameter section CRC and
// the whole-file CRC first — the store refuses to propagate a corrupt
// checkpoint deeper.
func (s *Store) Drain(version, dst int) error {
	if dst <= 0 || dst >= len(s.tiers) {
		return fmt.Errorf("checkpoint: drain target tier %d out of range", dst)
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()

	s.mu.Lock()
	var src = -1
	var want manifestEntry
	for t := 0; t < dst; t++ {
		if e, ok := s.manifests[t][version]; ok {
			src, want = t, e
			break
		}
	}
	already := false
	if _, ok := s.manifests[dst][version]; ok {
		already = true
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	if src < 0 {
		return fmt.Errorf("checkpoint: version %d not present above tier %s", version, s.tiers[dst].Name)
	}

	buf, err := s.be.read(s.VersionPath(src, version))
	if err != nil {
		return fmt.Errorf("checkpoint: drain read: %w", err)
	}
	if int64(len(buf)) != want.Bytes {
		return fmt.Errorf("checkpoint: refusing to drain v%d %s->%s: %d bytes stored, manifest says %d",
			version, s.tiers[src].Name, s.tiers[dst].Name, len(buf), want.Bytes)
	}
	if err := verifyBytes(buf); err != nil {
		return fmt.Errorf("checkpoint: refusing to drain v%d %s->%s: %w",
			version, s.tiers[src].Name, s.tiers[dst].Name, err)
	}

	if err := s.writeBytes(s.VersionPath(dst, version), buf); err != nil {
		return fmt.Errorf("checkpoint: drain write: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifests[dst][version] = want
	s.pruneLocked(dst)
	return s.writeManifestLocked(dst)
}

// DrainAll drains version through every deeper tier in order.
func (s *Store) DrainAll(version int) error {
	for t := 1; t < len(s.tiers); t++ {
		if err := s.Drain(version, t); err != nil {
			return err
		}
	}
	return nil
}

// DrainAsync drains in the background; errors surface from Wait.
func (s *Store) DrainAsync(version, dst int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.Drain(version, dst); err != nil {
			s.errMu.Lock()
			s.errs = append(s.errs, err)
			s.errMu.Unlock()
		}
	}()
}

// DrainAllAsync drains version through every deeper tier in the
// background, in order.
func (s *Store) DrainAllAsync(version int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.DrainAll(version); err != nil {
			s.errMu.Lock()
			s.errs = append(s.errs, err)
			s.errMu.Unlock()
		}
	}()
}

// Wait blocks until every outstanding async drain finishes and returns
// their accumulated errors (nil when all succeeded).
func (s *Store) Wait() error {
	s.wg.Wait()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	err := errors.Join(s.errs...)
	s.errs = nil
	return err
}

// RestoreInfo says which copy a restore actually used.
type RestoreInfo struct {
	Version  int
	Tier     int
	TierName string
}

// Restore loads the newest restorable version into m, preferring shallow
// (faster) tiers, skipping any copy whose size, whole-file CRC, section
// CRCs, or shape don't check out. It returns what it used, or an error
// describing every candidate it rejected.
func (s *Store) Restore(m nn.Module) (RestoreInfo, error) {
	s.mu.Lock()
	versions := map[int]bool{}
	for _, man := range s.manifests {
		for v := range man {
			versions[v] = true
		}
	}
	order := make([]int, 0, len(versions))
	for v := range versions {
		order = append(order, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(order)))
	type candidate struct {
		version, tier int
		entry         manifestEntry
	}
	var cands []candidate
	for _, v := range order {
		for t := range s.tiers {
			if e, ok := s.manifests[t][v]; ok {
				cands = append(cands, candidate{v, t, e})
			}
		}
	}
	s.mu.Unlock()

	var rejected []string
	for _, c := range cands {
		buf, err := s.be.read(s.VersionPath(c.tier, c.version))
		if err != nil || int64(len(buf)) != c.entry.Bytes {
			rejected = append(rejected, fmt.Sprintf("v%d@%s: size/stat mismatch", c.version, s.tiers[c.tier].Name))
			continue
		}
		if err := loadBytes(m, buf); err != nil {
			rejected = append(rejected, fmt.Sprintf("v%d@%s: %v", c.version, s.tiers[c.tier].Name, err))
			continue
		}
		return RestoreInfo{Version: c.version, Tier: c.tier, TierName: s.tiers[c.tier].Name}, nil
	}
	if len(rejected) == 0 {
		return RestoreInfo{}, errors.New("checkpoint: store holds no versions")
	}
	return RestoreInfo{}, fmt.Errorf("checkpoint: no restorable version (%s)", strings.Join(rejected, "; "))
}

// Newest returns the highest committed version across all tiers, or -1.
func (s *Store) Newest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	newest := -1
	for _, man := range s.manifests {
		for v := range man {
			if v > newest {
				newest = v
			}
		}
	}
	return newest
}

// Versions lists a tier's committed versions in ascending order.
func (s *Store) Versions(tier int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var vs []int
	for v := range s.manifests[tier] {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// CorruptVersion flips payload bits of a committed copy — the
// fault-injection hook for silent-data-corruption experiments. The flip
// lands in a copy that replaces the stored one, so no other tier's bytes
// change. The manifest keeps the original CRC, so Restore will reject
// this copy.
func (s *Store) CorruptVersion(tier, version int, xor byte) error {
	path := s.VersionPath(tier, version)
	buf, err := s.be.read(path)
	if err != nil {
		return err
	}
	if len(buf) == 0 {
		return fmt.Errorf("checkpoint: cannot corrupt empty %s", path)
	}
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)/2] ^= xor
	return s.writeBytes(path, flipped)
}

// TruncateVersion tears a committed copy to int(frac·len) bytes — a torn
// write caught mid-flight. frac in [0,1).
func (s *Store) TruncateVersion(tier, version int, frac float64) error {
	path := s.VersionPath(tier, version)
	buf, err := s.be.read(path)
	if err != nil {
		return err
	}
	return s.be.truncate(path, int64(float64(len(buf))*frac))
}

// Close waits out async drains.
func (s *Store) Close() error { return s.Wait() }

// pruneLocked removes versions beyond the retention bound from a tier.
// Callers write the manifest afterwards, so commit and prune cost one
// durable manifest write, not two.
func (s *Store) pruneLocked(tier int) {
	man := s.manifests[tier]
	if len(man) <= s.retain {
		return
	}
	var vs []int
	for v := range man {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs[:len(vs)-s.retain] {
		// A copy already gone is pruned all the same.
		_ = s.be.remove(s.VersionPath(tier, v))
		delete(man, v)
	}
}

// writeManifestLocked atomically rewrites a tier's manifest.
func (s *Store) writeManifestLocked(tier int) error {
	man := s.manifests[tier]
	var vs []int
	for v := range man {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	var b strings.Builder
	b.WriteString(manifestMagic + "\n")
	for _, v := range vs {
		e := man[v]
		fmt.Fprintf(&b, "v %d %s %d %d\n", e.Version, e.File, e.Bytes, e.CRC)
	}
	path := filepath.Join(s.tiers[tier].Dir, "MANIFEST")
	if err := s.writeBytes(path, []byte(b.String())); err != nil {
		return fmt.Errorf("checkpoint: manifest %s: %w", s.tiers[tier].Name, err)
	}
	return nil
}

// readManifest parses a tier manifest; a missing file is an empty tier.
func (s *Store) readManifest(path string) (map[int]manifestEntry, error) {
	man := map[int]manifestEntry{}
	buf, err := s.be.read(path)
	if errors.Is(err, fs.ErrNotExist) {
		return man, nil
	}
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(buf))
	if !sc.Scan() || sc.Text() != manifestMagic {
		return nil, fmt.Errorf("manifest %s: bad header", path)
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var e manifestEntry
		if _, err := fmt.Sscanf(line, "v %d %s %d %d", &e.Version, &e.File, &e.Bytes, &e.CRC); err != nil {
			return nil, fmt.Errorf("manifest %s: line %q: %w", path, line, err)
		}
		man[e.Version] = e
	}
	return man, sc.Err()
}

// writeBytes durably replaces path with data.
func (s *Store) writeBytes(path string, data []byte) error {
	return s.be.write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
