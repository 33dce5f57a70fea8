package spec

// Channels checks the three point-to-point channel properties of Section 2:
// SR-Validity, SR-No-Duplication, and SR-Termination. The first two are
// safety properties checked on every trace; SR-Termination is liveness and
// only evaluated on complete traces.
func Channels() Spec {
	return leafSpec("SR-Channels", func(n int) leafChecker { return newChannelsChecker(n) })
}
