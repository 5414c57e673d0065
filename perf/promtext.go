package main

import (
	"fmt"
	"strconv"
	"strings"
)

// scrape is one /v1/metrics document reduced to what deltas need: every
// sample summed over all labels except "endpoint" (so per-shard series
// add up), keyed "name" or `name{endpoint="x"}`. Histogram buckets are
// dropped; a histogram is read through its _sum and _count.
type scrape map[string]float64

func parseScrape(text string) (scrape, error) {
	out := scrape{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value: %q", n+1, line)
		}
		series := strings.TrimSpace(line[:sp])
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", n+1, line)
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if ep, ok := labelValue(labels, "endpoint"); ok {
			name += `{endpoint="` + ep + `"}`
		}
		out[name] += v
	}
	return out, nil
}

// labelValue extracts one label from `a="x",b="y"`. The daemon's label
// values are plain words, so no escape handling is needed beyond
// refusing to split inside quotes.
func labelValue(labels, key string) (string, bool) {
	for labels != "" {
		eq := strings.IndexByte(labels, '=')
		if eq < 0 || len(labels) < eq+2 || labels[eq+1] != '"' {
			return "", false
		}
		end := strings.IndexByte(labels[eq+2:], '"')
		if end < 0 {
			return "", false
		}
		k, v := strings.TrimSpace(labels[:eq]), labels[eq+2:eq+2+end]
		if k == key {
			return v, true
		}
		labels = strings.TrimPrefix(strings.TrimSpace(labels[eq+2+end+1:]), ",")
	}
	return "", false
}

// sub is the element-wise difference a-b: what happened between two
// scrapes. Gauges subtract like counters; callers read gauges from the
// later scrape directly.
func (a scrape) sub(b scrape) scrape {
	out := make(scrape, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// histMean is the mean observation of a histogram over a delta, in the
// histogram's own unit (seconds for *_duration_seconds); 0 without
// observations.
func (s scrape) histMean(name string) float64 {
	sum, cnt := name+"_sum", name+"_count"
	if i := strings.IndexByte(name, '{'); i >= 0 {
		sum, cnt = name[:i]+"_sum"+name[i:], name[:i]+"_count"+name[i:]
	}
	if s[cnt] == 0 {
		return 0
	}
	return s[sum] / s[cnt]
}

// memStats pulls the runtime.MemStats counters off the tail of a
// /debug/pprof/heap?debug=1 document ("# Mallocs = 123" lines).
func memStats(heapText string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(heapText, "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		k, v, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out[k] = f
		}
	}
	return out
}
