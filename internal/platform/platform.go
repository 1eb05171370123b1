// Package platform bundles a named machine model with factories for the
// network, storage, and performance models built from it, plus a registry
// of known systems, so that experiments and CLIs can run against any
// machine instead of hardcoded Summit constructors.
//
// The registry is seeded with "summit" (byte-identical to the machine
// package's published Summit rates — the paper's baseline), "frontier"
// and "juwels-booster" (calibrated from published system descriptions;
// see internal/machine/peers.go), and "generic" (a parameterizable
// cluster built from Config). Register adds more at runtime; the CLIs
// expose the registry through their -platform flag.
package platform

import (
	"summitscale/internal/machine"
	"summitscale/internal/models"
	"summitscale/internal/netsim"
	"summitscale/internal/perf"
	"summitscale/internal/storage"
)

// Platform is a named machine model plus factory methods for every
// downstream quantitative model. The zero value is not usable; obtain
// one from Lookup, the seeded constructors, or New.
type Platform struct {
	// Key is the registry name ("summit", "frontier", ...). The key
	// "summit" marks the paper's baseline: experiments carry the paper's
	// reference values only there.
	Key string
	machine.Machine
}

// IsPaperBaseline reports whether this is the machine the paper's
// reference numbers were measured on.
func (p Platform) IsPaperBaseline() bool { return p.Key == "summit" }

// HasNodeLocal reports whether the machine has a usable node-local burst
// buffer (diskless systems such as JUWELS Booster do not).
func (p Platform) HasNodeLocal() bool {
	return p.Node.NVMe > 0 && p.Node.NVMeReadBW > 0 && p.Node.NVMeWriteBW > 0
}

// Fabric returns the inter-node α–β communication model.
func (p Platform) Fabric() netsim.Fabric { return netsim.FabricFor(p.Machine) }

// GPFS returns the shared-file-system input path.
func (p Platform) GPFS() *storage.GPFS { return storage.GPFSFor(p.Machine) }

// NVMe returns the node-local burst-buffer input path. It panics on
// diskless machines; check HasNodeLocal first.
func (p Platform) NVMe() *storage.NVMe { return storage.NVMeFor(p.Node) }

// Stager returns the dataset staging model (shared FS -> node-local).
// Like NVMe, it requires node-local storage.
func (p Platform) Stager() *storage.Stager { return storage.StagerFor(p.Machine) }

// TrainingStore returns the fastest available training input path: the
// node-local burst buffer when the machine has one, else the shared FS.
func (p Platform) TrainingStore() storage.Store {
	if p.HasNodeLocal() {
		return p.NVMe()
	}
	return p.GPFS()
}

// Job fills this machine's defaults for a training job of the given model
// at the given node count.
func (p Platform) Job(m models.ModelSpec, nodes int) perf.Job {
	return perf.JobOn(p.Machine, m, nodes)
}

// Roofline returns the device-level mixed-precision roofline of the
// machine's GPU.
func (p Platform) Roofline() perf.Roofline { return perf.RooflineFor(p.Node.GPU) }
