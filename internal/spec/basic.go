package spec

import "fmt"

// BasicBroadcast checks the four properties every broadcast abstraction
// must verify (Section 3.1): BC-Validity and BC-No-Duplication (safety),
// and BC-Local-Termination and BC-Global-CS-Termination (liveness, checked
// on complete traces only). In the model CAMP_n[∅] this specification alone
// is the Send-To-All broadcast.
func BasicBroadcast() Spec {
	return leafSpec("Basic-Broadcast", func(n int) leafChecker { return newBasicChecker(n) })
}

// SendToAll is the basic broadcast under its usual name: it admits exactly
// the executions satisfying the four universal properties.
func SendToAll() Spec {
	return All("Send-To-All", BasicBroadcast())
}

// KSA checks the three defining properties of the k-set-agreement problem
// (Section 4.1) on every k-SA object used in the trace: k-SA-Validity,
// k-SA-Agreement (at most k distinct decided values per object), and
// k-SA-Termination (liveness; complete traces only). It also enforces the
// one-shot discipline: one propose per process per object.
func KSA(k int) Spec {
	name := fmt.Sprintf("%d-SA", k)
	return leafSpec(name, func(n int) leafChecker { return newKSAChecker(n, k, name) })
}
