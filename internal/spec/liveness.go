package spec

// This file adds the liveness-flavoured specifications cited in Section
// 3.2's opening: Uniform Reliable Broadcast [13], whose delivery guarantee
// extends to messages delivered by faulty processes, and the ordering
// property of Mutual Broadcast [9], the abstraction computationally
// equivalent to read/write registers.

// UniformReliable checks Uniform Reliable Broadcast: the four universal
// properties plus BC-Uniform-Termination — if ANY process (correct or
// faulty) B-delivers a message, then every correct process eventually
// B-delivers it. Like all termination properties it is evaluated on
// complete traces only.
func UniformReliable() Spec {
	return All("Uniform-Reliable-Broadcast", BasicBroadcast(),
		leafSpec("Uniform-Reliable-Broadcast", func(n int) leafChecker { return newUniformChecker(n) }))
}

// MutualOrder checks the ordering property of Mutual Broadcast [9]: for
// any two messages m broadcast by p and m' broadcast by q (p ≠ q), it is
// forbidden that p delivers its own m before m' while q delivers its own
// m' before m — at least one of the two broadcasters must see the other's
// message first. (This is the broadcast-level reflection of register
// atomicity: two writes cannot both be invisible to each other.)
//
// Prefix-safety: the violating situation requires both processes to have
// delivered both messages with their own strictly first, which no
// extension can undo.
func MutualOrder() Spec {
	return leafSpec("Mutual-Order", func(n int) leafChecker { return newMutualChecker(n) })
}

// MutualBroadcast composes the mutual order with the universal properties.
func MutualBroadcast() Spec {
	return All("Mutual-Broadcast", BasicBroadcast(), MutualOrder())
}
