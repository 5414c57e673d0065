package layers

import "erfilter/internal/metrics"

// metricsLayer: one histogram observation, paid several times per
// request by the always-on instrumentation.
func metricsLayer(_ *prepared, out map[string]Value) {
	var h metrics.Histogram
	const calls = 1_000_000
	v := perCallUS(5, calls, func() {
		for i := int64(0); i < calls; i++ {
			h.Observe(1000 + i&0xffff)
		}
	})
	out["metrics.observe_ns"] = Value{V: v.V * 1e3, N: v.N}
}
