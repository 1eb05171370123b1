package checkpoint

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/stats"
)

func testTiers(t *testing.T) []TierDir {
	dir := t.TempDir()
	return []TierDir{
		{Name: "nvme", Dir: filepath.Join(dir, "nvme")},
		{Name: "replica", Dir: filepath.Join(dir, "replica")},
		{Name: "gpfs", Dir: filepath.Join(dir, "gpfs")},
	}
}

// testStores names the two backends every store test runs on: host
// directories and memory. newStore opens an empty three-tier store.
var testStores = []struct {
	name     string
	newStore func(t *testing.T, retain int) *Store
}{
	{"dir", func(t *testing.T, retain int) *Store {
		s, err := NewStore(testTiers(t), retain)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"mem", func(t *testing.T, retain int) *Store {
		return NewMemStore([]string{"nvme", "replica", "gpfs"}, retain)
	}},
}

// forEachStore runs body as a subtest on each backend.
func forEachStore(t *testing.T, retain int, body func(t *testing.T, s *Store)) {
	for _, ts := range testStores {
		t.Run(ts.name, func(t *testing.T) { body(t, ts.newStore(t, retain)) })
	}
}

// stored returns a private copy of a version's bytes in a tier.
func stored(t *testing.T, s *Store, tier, version int) []byte {
	t.Helper()
	b, err := s.be.read(s.VersionPath(tier, version))
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), b...)
}

func testModel(seed uint64) *nn.Sequential {
	return nn.NewMLP(stats.NewRNG(seed), []int{4, 8, 3}, autograd.Tanh)
}

func sameParams(t *testing.T, a, b nn.Module) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		if !ap[i].Value.Data.Equal(bp[i].Value.Data, 0) {
			t.Fatalf("parameter %s differs", ap[i].Name)
		}
	}
}

func TestStoreSaveDrainRestore(t *testing.T) {
	forEachStore(t, 4, func(t *testing.T, s *Store) {
		m := testModel(1)
		if err := s.Save(m, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.DrainAll(1); err != nil {
			t.Fatal(err)
		}
		for tier := 0; tier < 3; tier++ {
			if got := s.Versions(tier); len(got) != 1 || got[0] != 1 {
				t.Fatalf("tier %d versions = %v, want [1]", tier, got)
			}
		}
		dst := testModel(99)
		info, err := s.Restore(dst)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != 1 || info.TierName != "nvme" {
			t.Fatalf("restored %+v, want v1 from nvme", info)
		}
		sameParams(t, m, dst)
	})
}

// A corrupt shallow copy must fall through to the deeper, intact tier —
// the reason the store exists.
func TestRestoreFallsThroughCorruptTiers(t *testing.T) {
	forEachStore(t, 4, func(t *testing.T, s *Store) {
		m := testModel(1)
		if err := s.Save(m, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.DrainAll(1); err != nil {
			t.Fatal(err)
		}
		if err := s.CorruptVersion(0, 1, 0x40); err != nil {
			t.Fatal(err)
		}
		if err := s.TruncateVersion(1, 1, 0.5); err != nil {
			t.Fatal(err)
		}
		dst := testModel(99)
		info, err := s.Restore(dst)
		if err != nil {
			t.Fatal(err)
		}
		if info.TierName != "gpfs" {
			t.Fatalf("restored from %s, want gpfs (the only intact copy)", info.TierName)
		}
		sameParams(t, m, dst)
	})
}

// Newer-but-damaged versions lose to an older intact one.
func TestRestorePrefersNewestRestorable(t *testing.T) {
	forEachStore(t, 4, func(t *testing.T, s *Store) {
		old, newer := testModel(1), testModel(2)
		if err := s.Save(old, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.DrainAll(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(newer, 2); err != nil {
			t.Fatal(err)
		}
		// v2 never drained and its only copy is corrupt: a torn tier-0 write.
		if err := s.CorruptVersion(0, 2, 0x01); err != nil {
			t.Fatal(err)
		}
		dst := testModel(99)
		info, err := s.Restore(dst)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != 1 {
			t.Fatalf("restored v%d, want the intact v1", info.Version)
		}
		sameParams(t, old, dst)
	})
}

// Drain must refuse to propagate a corrupt checkpoint to deeper tiers.
func TestDrainRefusesCorruptSource(t *testing.T) {
	forEachStore(t, 4, func(t *testing.T, s *Store) {
		if err := s.Save(testModel(1), 1); err != nil {
			t.Fatal(err)
		}
		if err := s.CorruptVersion(0, 1, 0x20); err != nil {
			t.Fatal(err)
		}
		err := s.Drain(1, 1)
		if err == nil {
			t.Fatal("drain propagated a corrupt checkpoint")
		}
		if !strings.Contains(err.Error(), "refusing to drain") {
			t.Fatalf("unexpected error: %v", err)
		}
		if got := s.Versions(1); len(got) != 0 {
			t.Fatalf("replica tier has %v after refused drain", got)
		}
	})
}

func TestAsyncDrainMatchesSync(t *testing.T) {
	forEachStore(t, 8, func(t *testing.T, s *Store) {
		for v := 1; v <= 3; v++ {
			if err := s.Save(testModel(uint64(v)), v); err != nil {
				t.Fatal(err)
			}
			s.DrainAllAsync(v)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		for tier := 0; tier < 3; tier++ {
			if got := s.Versions(tier); len(got) != 3 {
				t.Fatalf("tier %d has versions %v, want 3", tier, got)
			}
		}
	})
}

func TestRetentionPrunes(t *testing.T) {
	forEachStore(t, 2, func(t *testing.T, s *Store) {
		for v := 1; v <= 5; v++ {
			if err := s.Save(testModel(uint64(v)), v); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Versions(0); len(got) != 2 || got[0] != 4 || got[1] != 5 {
			t.Fatalf("tier 0 retains %v, want [4 5]", got)
		}
		// Pruned copies are actually gone from the tier.
		if _, err := s.be.read(s.VersionPath(0, 1)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("pruned version still stored (read error %v)", err)
		}
	})
}

// Drain must also refuse a copy shorter than its manifest entry: a torn
// tier-0 write never reaches the replica.
func TestDrainRefusesTornSource(t *testing.T) {
	forEachStore(t, 4, func(t *testing.T, s *Store) {
		if err := s.Save(testModel(1), 1); err != nil {
			t.Fatal(err)
		}
		if err := s.TruncateVersion(0, 1, 0.9); err != nil {
			t.Fatal(err)
		}
		err := s.Drain(1, 1)
		if err == nil || !strings.Contains(err.Error(), "refusing to drain") || !strings.Contains(err.Error(), "manifest says") {
			t.Fatalf("drain of a torn copy: %v, want a size refusal", err)
		}
		if got := s.Versions(1); len(got) != 0 {
			t.Fatalf("replica tier has %v after refused drain", got)
		}
	})
}

// A restore into a model of another shape rejects every copy.
func TestRestoreRejectsShapeMismatch(t *testing.T) {
	forEachStore(t, 4, func(t *testing.T, s *Store) {
		if err := s.Save(testModel(1), 1); err != nil {
			t.Fatal(err)
		}
		if err := s.DrainAll(1); err != nil {
			t.Fatal(err)
		}
		other := nn.NewMLP(stats.NewRNG(1), []int{4, 16, 3}, autograd.Tanh)
		if info, err := s.Restore(other); err == nil {
			t.Fatalf("restored %+v into a model of another shape", info)
		}
	})
}

// A torn drain keeps exactly int(frac·len) bytes of the copy.
func TestTornDrainCutsExactly(t *testing.T) {
	forEachStore(t, 8, func(t *testing.T, s *Store) {
		for v, frac := range []float64{0, 0.3, 0.5, 0.999} {
			version := v + 1
			if err := s.Save(testModel(uint64(version)), version); err != nil {
				t.Fatal(err)
			}
			if err := s.DrainAll(version); err != nil {
				t.Fatal(err)
			}
			whole := stored(t, s, 1, version)
			if err := s.TruncateVersion(1, version, frac); err != nil {
				t.Fatal(err)
			}
			got := stored(t, s, 1, version)
			want := int(frac * float64(len(whole)))
			if len(got) != want || !bytes.Equal(got, whole[:want]) {
				t.Fatalf("frac %v: kept %d bytes, want the first %d of %d", frac, len(got), want, len(whole))
			}
		}
	})
}

// Damage injected into one memory tier stays in that tier: a flip
// rewrites a copy, a truncation cuts one tier's slice, and neither
// reaches the other tiers' bytes or a slice read before the damage.
func TestMemTierDamageIsolated(t *testing.T) {
	s := NewMemStore([]string{"nvme", "replica", "gpfs"}, 4)
	m := testModel(1)
	if err := s.Save(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainAll(1); err != nil {
		t.Fatal(err)
	}
	clean := stored(t, s, 0, 1)
	held, err := s.be.read(s.VersionPath(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptVersion(0, 1, 0x40); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, clean) {
		t.Fatal("the flip changed a slice read before it")
	}
	flipped := stored(t, s, 0, 1)
	if bytes.Equal(flipped, clean) {
		t.Fatal("the flip changed nothing")
	}
	for tier := 1; tier < 3; tier++ {
		if !bytes.Equal(stored(t, s, tier, 1), clean) {
			t.Fatalf("a flip in tier 0 reached tier %d", tier)
		}
	}
	if err := s.TruncateVersion(1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored(t, s, 0, 1), flipped) || !bytes.Equal(stored(t, s, 2, 1), clean) {
		t.Fatal("a truncation of tier 1 reached another tier")
	}
	dst := testModel(99)
	info, err := s.Restore(dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.TierName != "gpfs" {
		t.Fatalf("restored from %s, want gpfs (the only intact copy)", info.TierName)
	}
	sameParams(t, m, dst)
}

// Reopening a store over the same directories resumes from the durable
// manifests — the restart path after a crash.
func TestStoreReopenResumes(t *testing.T) {
	tiers := testTiers(t)
	s, err := NewStore(tiers, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(7)
	if err := s.Save(m, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainAll(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewStore(tiers, 4)
	if err != nil {
		t.Fatal(err)
	}
	if re.Newest() != 3 {
		t.Fatalf("reopened store newest = %d, want 3", re.Newest())
	}
	dst := testModel(99)
	if _, err := re.Restore(dst); err != nil {
		t.Fatal(err)
	}
	sameParams(t, m, dst)
}

func TestVerifyLocalizesCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	m := testModel(1)
	if err := Save(m, path); err != nil {
		t.Fatal(err)
	}
	sections, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != len(m.Params()) {
		t.Fatalf("%d sections, want %d", len(sections), len(m.Params()))
	}
	for _, s := range sections {
		if !s.OK {
			t.Fatalf("fresh checkpoint reports %q corrupt", s.Name)
		}
	}
	// Flip one byte mid-file: exactly one section goes bad, the rest stay
	// verifiably intact — corruption is localized, not all-or-nothing.
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0x55
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	sections, err = Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, s := range sections {
		if !s.OK {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("%d corrupt sections after one flipped byte, want exactly 1", bad)
	}
}
