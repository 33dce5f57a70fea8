package explore

import "nobroadcast/internal/sched"

// ddmin is Zeller/Hildebrandt delta debugging over a scheduler decision
// sequence: it returns a 1-minimal subsequence for which test still
// reports true (removing any single remaining chunk at the final
// granularity makes the violation vanish). test is assumed true for the
// full input; correctness does not depend on monotonicity — a candidate
// either reproduces the violation under the live checkers on replay or
// it does not, so the result is always a genuine violating schedule,
// just not necessarily a globally minimum one.
//
// Decisions removed from the middle remain meaningful because the replay
// strategy (sched.NewReplay) skips decisions that no longer apply and
// matches messages by endpoints rather than allocation-order ids.
//
// Candidates are built in one spare buffer, which trades places with cur
// whenever a candidate reproduces, so a minimization allocates two
// buffers in all; test must not retain the slice it is passed.
func ddmin(decisions []sched.Event, test func([]sched.Event) (bool, error)) ([]sched.Event, error) {
	cur := append([]sched.Event(nil), decisions...)
	spare := make([]sched.Event, 0, len(cur))
	n := 2
	for len(cur) >= 2 && n <= len(cur) {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			// Try the complement: everything except cur[start:end].
			cand := append(spare[:0], cur[:start]...)
			cand = append(cand, cur[end:]...)
			ok, err := test(cand)
			if err != nil {
				return nil, err
			}
			if ok {
				cur, spare = cand, cur
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n == len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return cur, nil
}
