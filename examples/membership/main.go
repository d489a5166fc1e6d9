// Membership: clique detection with the Sec. 7 protocol variant. A
// disturbance sits between node 1 and the rest of the cluster, so node 1
// misses node 2's broadcast while everyone else receives it — an asymmetric
// fault that splits the receivers into a majority clique {2,3,4} and a
// minority clique {1}.
//
// The plain diagnostic protocol agrees that node 2 was healthy (majority
// vote) and cannot see the clique; the membership variant additionally
// notices that node 1's disseminated syndrome disagrees with the agreed
// verdict, raises a minority accusation, and installs the new view {2,3,4}
// at every obedient node in the same round — within two protocol executions
// (Theorem 2).
package main

import (
	"fmt"
	"log"
	"math/bits"

	"ttdiag"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eng, runners, err := ttdiag.NewMembershipSimulation(ttdiag.SimulationConfig{})
	if err != nil {
		return err
	}

	// The asymmetric fault: only node 1 fails to receive node 2's message
	// in round 8.
	const faultRound = 8
	eng.Bus().AddDisturbance(receiverBlind{faultRound: faultRound})

	for id := 1; id <= 4; id++ {
		id := id
		runners[id].OnOutput = func(out ttdiag.MembershipOutput) {
			for m := out.Diag.Accused; m != 0; m &= m - 1 {
				fmt.Printf("round %2d: node %d raises a minority accusation against node %d\n",
					out.Diag.Round, id, bits.TrailingZeros64(m)+1)
			}
			if out.ViewChanged {
				fmt.Printf("round %2d: node %d installs view %d: members %v\n",
					out.Diag.Round, id, out.View.ID, out.View.Members)
			}
		}
	}

	if err := eng.RunRounds(20); err != nil {
		return err
	}

	fmt.Println()
	for id := 1; id <= 4; id++ {
		v := runners[id].View()
		fmt.Printf("node %d final view: id=%d members=%v (formed at round %d)\n",
			id, v.ID, v.Members, v.FormedAtRound)
	}
	fmt.Println("\nall obedient nodes hold the same view: the minority clique {1} was")
	fmt.Println("detected and excluded, preserving view synchrony.")
	return nil
}

// receiverBlind makes node 1 miss node 2's broadcast in one round. It is a
// tiny custom ttdiag.Disturbance, showing how applications can model their
// own fault hypotheses against the public API.
type receiverBlind struct {
	faultRound int
}

func (rb receiverBlind) Deliver(tx *ttdiag.Transmission, rcv ttdiag.NodeID, d ttdiag.Delivery) ttdiag.Delivery {
	if tx.Round == rb.faultRound && tx.Sender == 2 && rcv == 1 {
		return ttdiag.Delivery{}
	}
	return d
}

func (rb receiverBlind) SenderCollision(_ *ttdiag.Transmission, collided bool) bool {
	return collided
}
