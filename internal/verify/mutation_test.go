package verify

import "testing"

// TestMutationsCaught is the checker's self-test: the unmutated protocol
// passes (including under fault injection) and every seeded bug is
// detected. The gxhc StaleReady mutant is excluded under the race detector
// because it injects a genuine data race (see race_on.go).
func TestMutationsCaught(t *testing.T) {
	for _, o := range RunMutationSelfTest(!raceEnabled) {
		if o.OK {
			if o.Mutant {
				t.Logf("%s: caught: %s", o.Name, o.Detail)
			}
			continue
		}
		if o.Mutant {
			t.Errorf("seeded bug %s was NOT caught", o.Name)
		} else {
			t.Errorf("clean control %s failed: %s", o.Name, o.Detail)
		}
	}
}
