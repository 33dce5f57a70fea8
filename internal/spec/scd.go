package spec

import "fmt"

// This file implements the set-delivery generalization the paper's Section
// 3.1 remark sets aside for readability: Set-Constrained Delivery
// Broadcast (SCD Broadcast [16]) and its k-SCD extension [15] deliver
// messages within unordered sets rather than individually. The model
// supports it through the Batch field of delivery steps: deliveries by one
// process sharing a positive Batch value form one delivered set; Batch 0
// marks an ordinary singleton delivery.
//
// SCD's ordering property, batch-wise: for any two messages m and m',
// no two processes deliver them in strictly opposite set orders — if p
// delivers (a set containing) m strictly before (a set containing) m',
// then no q delivers m' strictly before m. Messages inside the same set
// are unordered, which is exactly the slack that makes SCD implementable
// from read/write registers [16] where Total Order is not.

// SCDOrder checks the set-constrained delivery ordering property. It is
// prefix-safe: a strict opposite ordering of two delivered sets cannot be
// undone by any extension.
func SCDOrder() Spec {
	return leafSpec("SCD-Order", func(n int) leafChecker { return newSCDChecker(n) })
}

// SCDBroadcast composes the SCD order with the universal properties.
func SCDBroadcast() Spec {
	return All("SCD-Broadcast", BasicBroadcast(), SCDOrder())
}

// KSCDOrder checks the ordering property of k-SCD Broadcast [15], the
// set-delivery form of k-Bounded Order: every set of k+1 messages contains
// two messages whose delivered-set order agrees at all processes. A finite
// trace violates it iff some k+1 messages are pairwise batch-conflicting —
// each pair delivered in strictly opposite set orders by two processes.
// SCDOrder is the k = 1 case.
func KSCDOrder(k int) Spec {
	name := fmt.Sprintf("%d-SCD-Order", k)
	return leafSpec(name, func(n int) leafChecker {
		return newCliqueChecker(n, k, true, name, "k-Set-Constrained-Delivery", kscdCliqueDetail, DefaultCliqueBudget)
	})
}

// KSCDBroadcast composes the k-SCD order with the universal properties.
func KSCDBroadcast(k int) Spec {
	return All(fmt.Sprintf("%d-SCD-Broadcast", k), BasicBroadcast(), KSCDOrder(k))
}
