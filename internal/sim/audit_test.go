package sim

import "fmt"

// auditTheorem2 checks the membership service's guaranteed properties over a
// run (Theorem 2) for a single asymmetric-fault episode:
//
//   - liveness: once a locally detectable message is received (faultRound),
//     every obedient observer installs a new view within two protocol
//     executions (2·(lag+1) rounds);
//   - agreement: all obedient observers hold identical view histories
//     (same IDs, members and formation rounds) — the observable core of
//     view synchrony.
func auditTheorem2(runners []*MembershipRunner, obedient []int, faultRound, lag int) error {
	if len(obedient) == 0 {
		return fmt.Errorf("sim: no obedient observers")
	}
	ref := runners[obedient[0]].Service().History()
	for _, obs := range obedient[1:] {
		h := runners[obs].Service().History()
		if len(h) != len(ref) {
			return fmt.Errorf("sim: observer %d has %d views, observer %d has %d",
				obs, len(h), obedient[0], len(ref))
		}
		for i := range h {
			if h[i].ID != ref[i].ID || h[i].FormedAtRound != ref[i].FormedAtRound {
				return fmt.Errorf("sim: view %d disagrees between observers %d and %d", i, obedient[0], obs)
			}
			if len(h[i].Members) != len(ref[i].Members) {
				return fmt.Errorf("sim: view %d members differ between observers %d and %d", i, obedient[0], obs)
			}
			for m := range h[i].Members {
				if h[i].Members[m] != ref[i].Members[m] {
					return fmt.Errorf("sim: view %d members differ between observers %d and %d", i, obedient[0], obs)
				}
			}
		}
	}
	if len(ref) < 2 {
		return fmt.Errorf("sim: liveness violated: no view change after the fault")
	}
	formed := ref[len(ref)-1].FormedAtRound
	if deadline := faultRound + 2*(lag+1); formed > deadline {
		return fmt.Errorf("sim: liveness violated: view formed at round %d, deadline %d", formed, deadline)
	}
	return nil
}
