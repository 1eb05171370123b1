package platform_test

import (
	"strings"
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/models"
	"summitscale/internal/netsim"
	"summitscale/internal/perf"
	"summitscale/internal/platform"
	"summitscale/internal/storage"
	"summitscale/internal/units"
)

func TestRegistrySeededMachines(t *testing.T) {
	names := platform.Names()
	if len(names) < 4 {
		t.Fatalf("want >= 4 registered machines, got %v", names)
	}
	for _, want := range []string{"summit", "frontier", "juwels-booster", "generic"} {
		p, err := platform.Lookup(want)
		if err != nil {
			t.Errorf("Lookup(%q): %v", want, err)
			continue
		}
		if err := platform.Validate(p); err != nil {
			t.Errorf("%s fails validation: %v", want, err)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, name := range []string{"Summit", "SUMMIT", "  summit "} {
		p, err := platform.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if p.Key != "summit" {
			t.Errorf("Lookup(%q).Key = %q", name, p.Key)
		}
	}
}

func TestLookupUnknownListsNames(t *testing.T) {
	_, err := platform.Lookup("el-capitan")
	if err == nil {
		t.Fatal("Lookup of unknown machine succeeded")
	}
	if !strings.Contains(err.Error(), "summit") {
		t.Errorf("error should list registered names, got: %v", err)
	}
}

// TestSummitFactoriesMatchLegacyConstructors pins the refactor contract:
// the platform factories on the baseline produce exactly what the old
// Summit* constructors produce.
func TestSummitFactoriesMatchLegacyConstructors(t *testing.T) {
	p := platform.Summit()
	if !p.IsPaperBaseline() {
		t.Fatal("summit must be the paper baseline")
	}
	if got, want := p.Fabric(), netsim.SummitFabric(); got != want {
		t.Errorf("Fabric = %+v, want %+v", got, want)
	}
	if got, want := p.HierarchicalFabric(), netsim.SummitHierarchicalFabric(); got != want {
		t.Errorf("HierarchicalFabric = %+v, want %+v", got, want)
	}
	if got, want := *p.GPFS(), *storage.NewGPFS(); got != want {
		t.Errorf("GPFS = %+v, want %+v", got, want)
	}
	if got, want := *p.NVMe(), *storage.NewNVMe(); got != want {
		t.Errorf("NVMe = %+v, want %+v", got, want)
	}
	if got, want := p.Roofline(), perf.RooflineFor(machine.V100()); got != want {
		t.Errorf("Roofline = %+v, want %+v", got, want)
	}
	j, legacy := p.Job(models.ResNet50(), 128), perf.SummitJob(models.ResNet50(), 128)
	if j.Fabric != legacy.Fabric || j.GPUsPerNode != legacy.GPUsPerNode ||
		j.NVLinkBW != legacy.NVLinkBW || j.Nodes != legacy.Nodes {
		t.Errorf("Job = %+v, want %+v", j, legacy)
	}
}

func TestDisklessMachine(t *testing.T) {
	jb := platform.MustLookup("juwels-booster")
	if jb.HasNodeLocal() {
		t.Error("JUWELS Booster is diskless; HasNodeLocal must be false")
	}
	if _, ok := jb.TrainingStore().(*storage.GPFS); !ok {
		t.Errorf("diskless TrainingStore should fall back to the shared FS, got %T", jb.TrainingStore())
	}
	if sm := platform.Summit(); !sm.HasNodeLocal() {
		t.Error("Summit has node-local NVMe; HasNodeLocal must be true")
	} else if _, ok := sm.TrainingStore().(*storage.NVMe); !ok {
		t.Errorf("Summit TrainingStore should be NVMe, got %T", sm.TrainingStore())
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", what)
		}
	}()
	f()
}

func TestConstructorGuards(t *testing.T) {
	mustPanic(t, "zero-bandwidth fabric", func() { netsim.NewFabric(1e-7, 0) })
	mustPanic(t, "negative-bandwidth fabric", func() { netsim.NewFabric(1e-7, -1) })
	mustPanic(t, "negative-latency fabric", func() { netsim.NewFabric(-1, 25*units.GBps) })
	mustPanic(t, "NVMe on diskless node", func() {
		storage.NVMeFor(machine.JUWELSBoosterNode())
	})
	mustPanic(t, "NVMe from diskless platform", func() {
		platform.MustLookup("juwels-booster").NVMe()
	})
	mustPanic(t, "roofline without peak", func() { perf.RooflineFor(machine.GPU{Name: "null"}) })
	mustPanic(t, "GPFS without FS", func() { storage.GPFSFor(machine.Machine{}) })
	mustPanic(t, "stager without injection bw", func() { storage.StagerFor(machine.Machine{}) })
}

func TestNewValidatesConfig(t *testing.T) {
	good := platform.GenericConfig()
	if _, err := platform.New("ok", good); err != nil {
		t.Fatalf("GenericConfig should validate: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*platform.Config)
	}{
		{"zero nodes", func(c *platform.Config) { c.Nodes = 0 }},
		{"negative injection bw", func(c *platform.Config) { c.InjectionBW = -1 }},
		{"zero FS read bw", func(c *platform.Config) { c.FSReadBW = 0 }},
		{"gpus without tensor peak", func(c *platform.Config) { c.GPU.PeakTensor = 0 }},
		{"multi-gpu without nvlink", func(c *platform.Config) { c.NVLinkBW = 0 }},
		{"empty name", func(c *platform.Config) { c.Name = "" }},
	} {
		c := platform.GenericConfig()
		tc.mut(&c)
		if _, err := platform.New("bad", c); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := platform.Register("summit", platform.Summit); err == nil {
		t.Error("Register must reject an already-registered name")
	}
	if err := platform.Register("", platform.Summit); err == nil {
		t.Error("Register must reject an empty name")
	}
	if err := platform.Register("test-dup-probe", platform.Summit); err != nil {
		t.Fatalf("Register of a fresh name failed: %v", err)
	}
	if err := platform.Register("Test-Dup-Probe", platform.Summit); err == nil {
		t.Error("Register must be case-insensitive about duplicates")
	}
	if _, err := platform.Lookup("test-dup-probe"); err != nil {
		t.Errorf("registered platform not resolvable: %v", err)
	}
}
