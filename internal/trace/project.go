package trace

import "nobroadcast/internal/model"

// This file provides a runtime-independent projection of a trace's
// B-deliveries. The two runtimes allocate message identities differently
// (the deterministic runtime shares one counter between broadcast
// messages and point-to-point instances; the concurrent runtime numbers
// broadcasts densely), so cross-runtime comparison — the job of
// internal/conformance — must erase identities and key deliveries by
// (origin, content) instead. Broadcast contents are unique per message in
// the generated workloads, which makes the erased form lossless there.

// DeliveryEvent is one identity-erased B-delivery.
type DeliveryEvent struct {
	Origin  model.ProcID
	Payload model.Payload
}

// ProjectDeliveries returns, per process, the identity-erased sequence of
// B-deliveries, in delivery order.
func ProjectDeliveries(t *Trace) map[model.ProcID][]DeliveryEvent {
	out := make(map[model.ProcID][]DeliveryEvent)
	for _, s := range t.X.Steps {
		if s.Kind == model.KindDeliver {
			out[s.Proc] = append(out[s.Proc], DeliveryEvent{Origin: s.Peer, Payload: s.Payload})
		}
	}
	return out
}
