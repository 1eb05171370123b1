package serve

import (
	"testing"

	"summitscale/internal/units"
)

// FuzzAdmissionQueue drives the admission ledger with an arbitrary
// offer/release program and checks its invariants: depth stays within
// [0, QueueCap], every offer is accounted exactly once (admitted, shed,
// or full), shedding only ever refuses Bulk traffic, and releases of at
// most the current depth never panic.
//
// Each op byte encodes one step: bit 0 selects offer-vs-release, bit 1
// selects the tier of an offered request, and the remaining bits perturb
// release sizes.
func FuzzAdmissionQueue(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{0, 2, 0, 1, 2, 0, 1})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 0, 1, 1})
	f.Add(uint8(16), uint8(8), []byte{})
	f.Add(uint8(0), uint8(255), []byte{0, 2, 1, 0, 2, 1, 255, 254})
	f.Fuzz(func(t *testing.T, cap8, shed8 uint8, ops []byte) {
		cfg := AdmissionConfig{QueueCap: int(cap8), ShedAt: int(shed8)}
		q := newAdmitQueue(cfg)
		if q.cfg.QueueCap < 1 {
			t.Fatalf("constructor left cap %d < 1", q.cfg.QueueCap)
		}
		offers, released := 0, 0
		var id uint64
		for _, op := range ops {
			if op&1 == 0 {
				id++
				offers++
				tier := Bulk
				if op&2 != 0 {
					tier = Interactive
				}
				rej, admitted := q.offer(Request{ID: id, Tier: tier}, units.Seconds(float64(id)))
				if !admitted {
					if rej.Code == RejectShed && tier == Interactive {
						t.Fatalf("op %d: shed an Interactive request", id)
					}
					if rej.Code != RejectShed && rej.Code != RejectQueueFull {
						t.Fatalf("op %d: unexpected rejection code %v", id, rej.Code)
					}
					if rej.ID != id {
						t.Fatalf("op %d: rejection carries wrong id %d", id, rej.ID)
					}
				}
			} else {
				n := int(op>>2) % (q.depth + 1) // never over-release: that is a programming-error panic
				q.release(n)
				released += n
			}
			if q.depth < 0 || q.depth > q.cfg.QueueCap {
				t.Fatalf("depth %d outside [0, %d]", q.depth, q.cfg.QueueCap)
			}
			if q.peakDepth < q.depth {
				t.Fatalf("peak %d below current depth %d", q.peakDepth, q.depth)
			}
			if q.admitted+q.shed+q.full != offers {
				t.Fatalf("accounting leak: admitted %d + shed %d + full %d != offers %d",
					q.admitted, q.shed, q.full, offers)
			}
			if q.admitted-released != q.depth {
				t.Fatalf("depth %d != admitted %d - released %d", q.depth, q.admitted, released)
			}
		}
	})
}
