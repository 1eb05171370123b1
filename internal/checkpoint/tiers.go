// Tier pricing: the three checkpoint levels of a leadership machine
// (node-local NVMe, partner-node replica, shared GPFS), with bandwidths
// from the platform registry and a survivable-failure MTBF per tier that
// feeds a per-tier Young/Daly cadence. Shallow tiers are fast but die
// with the job; deep tiers are slow but survive bigger events — which is
// exactly why the optimal intervals spread apart with depth.
package checkpoint

import (
	"fmt"

	"summitscale/internal/faults"
	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// Tier is one checkpoint level's price sheet for a given job size.
type Tier struct {
	Name    string
	WriteBW units.BytesPerSecond // aggregate, at the job's node count
	ReadBW  units.BytesPerSecond
	// MTBF is the mean time between failures that this tier does NOT
	// survive: any job interrupt for node-local state, simultaneous
	// partner loss for the replica, a facility-scale event for GPFS.
	MTBF units.Seconds
}

const (
	// quiesceTime is the pause to settle in-flight collectives before the
	// tier-0 snapshot is consistent.
	quiesceTime = units.Seconds(2)
	// replicaSurvival scales the system MTBF for the partner-replica
	// tier: losing it needs the node and its partner inside one rebuild
	// window, which is an order of magnitude rarer than one interrupt.
	replicaSurvival = 16
)

// TiersFor prices the checkpoint tiers of p for a job of jobNodes nodes,
// shallowest first. Diskless machines (no node-local NVMe) get two tiers.
func TiersFor(p platform.Platform, jobNodes int) []Tier {
	if jobNodes < 1 {
		panic(fmt.Sprintf("checkpoint: TiersFor needs >= 1 node, got %d", jobNodes))
	}
	params := faults.ParamsFor(p.Machine, jobNodes)
	sysMTBF := params.SystemMTBF()
	n := units.BytesPerSecond(jobNodes)

	var tiers []Tier
	if p.HasNodeLocal() {
		tiers = append(tiers, Tier{
			Name:    "nvme",
			WriteBW: p.Node.NVMeWriteBW * n,
			ReadBW:  p.Node.NVMeReadBW * n,
			MTBF:    sysMTBF,
		})
	}
	// Partner replica: each node streams its shard to a partner over the
	// fabric; the landing medium is the partner's NVMe when it has one,
	// DRAM otherwise (diskless machines), so injection is the other cap.
	replicaBW := p.Node.InjectionBW
	if p.HasNodeLocal() && p.Node.NVMeWriteBW < replicaBW {
		replicaBW = p.Node.NVMeWriteBW
	}
	tiers = append(tiers, Tier{
		Name:    "replica",
		WriteBW: replicaBW * n,
		ReadBW:  replicaBW * n,
		MTBF:    sysMTBF * replicaSurvival,
	})
	// GPFS: aggregate filesystem bandwidth, capped by the job's total
	// injection; survives everything short of a facility event, which we
	// rate at a single node's own MTBF (~years).
	gpfsWrite := p.FS.WriteBW
	if inj := p.Node.InjectionBW * n; inj < gpfsWrite {
		gpfsWrite = inj
	}
	gpfsRead := p.FS.ReadBW
	if inj := p.Node.InjectionBW * n; inj < gpfsRead {
		gpfsRead = inj
	}
	tiers = append(tiers, Tier{
		Name:    "gpfs",
		WriteBW: gpfsWrite,
		ReadBW:  gpfsRead,
		MTBF:    params.NodeMTBF,
	})
	return tiers
}

// TierPlan is a tier plus its checkpoint cost for a given state size and
// the Young/Daly interval solved from that cost and the tier's MTBF.
type TierPlan struct {
	Tier     Tier
	Delta    units.Seconds // cost of one checkpoint to this tier
	Interval units.Seconds // Young/Daly cadence
}

// PlanTiers prices a full cadence plan: state bytes into every tier of p
// at jobNodes, tier 0 paying the quiesce pause on top of its write time.
func PlanTiers(p platform.Platform, jobNodes int, state units.Bytes) []TierPlan {
	if state <= 0 {
		panic(fmt.Sprintf("checkpoint: PlanTiers needs positive state, got %v", float64(state)))
	}
	tiers := TiersFor(p, jobNodes)
	plans := make([]TierPlan, len(tiers))
	for i, t := range tiers {
		delta := units.Seconds(float64(state) / float64(t.WriteBW))
		if i == 0 {
			delta += quiesceTime
		}
		plans[i] = TierPlan{Tier: t, Delta: delta, Interval: faults.DalyInterval(delta, t.MTBF)}
	}
	return plans
}
