package tensor

// PoisonArena overwrites every float slot of a's slabs with v, so a test
// can show that no operation reads arena memory it did not write.
func PoisonArena(a *Arena, v float64) {
	for _, s := range a.floats {
		for i := range s {
			s[i] = v
		}
	}
}
