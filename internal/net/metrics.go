package net

import "nobroadcast/internal/obs"

// netMetrics is the network's instrumentation, built on internal/obs. The
// counters always exist — StatsSnapshot reports them with or without a
// Registry — but they live under registry names (and gain latency/depth
// histograms plus the in-flight gauge) when Config.Obs is set. This
// replaces the hand-rolled Stats struct the package used to carry.
type netMetrics struct {
	sent       *obs.Counter
	received   *obs.Counter
	delivered  *obs.Counter
	broadcasts *obs.Counter
	// dropped counts messages discarded because the network stopped, the
	// destination crashed, or the destination did not exist — the events
	// the old Stats never tracked.
	dropped *obs.Counter
	// reordered counts receptions that overtook an earlier send to the
	// same destination (non-FIFO transport made visible).
	reordered *obs.Counter
	// crashes counts Crash calls that took effect.
	crashes *obs.Counter
	// faultDropped, faultDuplicated, and faultPartitionDropped count the
	// FaultPlan's injections: probabilistic losses, duplications, and
	// messages cut by an active partition. Always live (StatsSnapshot
	// reports them), named net.faults.* in registry mode.
	faultDropped          *obs.Counter
	faultDuplicated       *obs.Counter
	faultPartitionDropped *obs.Counter
	// partitionsActive gauges the number of currently active partitions,
	// refreshed on every routed message while a fault plan is configured.
	partitionsActive *obs.Gauge
	// inFlight gauges message goroutines currently in transit (registry
	// mode only; nil-safe no-op otherwise).
	inFlight *obs.Gauge
	// delayUS observes the assigned per-message transit delay; handleUS
	// the automaton handler latency (registry mode only).
	delayUS  *obs.Histogram
	handleUS *obs.Histogram
}

func newNetMetrics(reg *obs.Registry) *netMetrics {
	// Standalone counters keep StatsSnapshot alive with observability
	// disabled; the in-flight gauge and histograms stay nil (no-op
	// recorders).
	counter := func(name string) *obs.Counter {
		if reg == nil {
			return obs.NewCounter()
		}
		return reg.Counter(name)
	}
	partitions := obs.NewGauge()
	if reg != nil {
		partitions = reg.Gauge("net.faults.partitions_active")
	}
	return &netMetrics{
		sent:                  counter("net.sent"),
		received:              counter("net.received"),
		delivered:             counter("net.delivered"),
		broadcasts:            counter("net.broadcasts"),
		dropped:               counter("net.dropped"),
		reordered:             counter("net.reordered"),
		crashes:               counter("net.crashes"),
		faultDropped:          counter("net.faults.dropped"),
		faultDuplicated:       counter("net.faults.duplicated"),
		faultPartitionDropped: counter("net.faults.partition_dropped"),
		partitionsActive:      partitions,
		inFlight:              reg.Gauge("net.in_flight"),
		delayUS:               reg.Histogram("net.delay_us", obs.DefaultLatencyBuckets...),
		handleUS:              reg.Histogram("net.handle_us", obs.DefaultLatencyBuckets...),
	}
}

// snapshot copies the counters.
func (m *netMetrics) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Sent:           m.sent.Value(),
		Received:       m.received.Value(),
		Delivered:      m.delivered.Value(),
		Broadcasts:     m.broadcasts.Value(),
		Dropped:        m.dropped.Value(),
		Reordered:      m.reordered.Value(),
		Crashes:        m.crashes.Value(),
		FaultDrops:     m.faultDropped.Value(),
		FaultDups:      m.faultDuplicated.Value(),
		PartitionDrops: m.faultPartitionDropped.Value(),
	}
}
