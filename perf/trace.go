package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run. Spans of one request
// share Req; Parent is the index of the enclosing span in the file's
// span list, -1 for a root. Start and End are nanoseconds since the run
// began. Reported spans carry a duration the daemon stated in its
// "trace" response section: the client cannot see where inside the
// round trip they ran, so they are centred in their parent.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
	Reported bool   `json:"reported,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens a new request id and records its root span.
func (t *tracer) request(name string, start time.Time, dur time.Duration) int {
	t.req++
	return t.add(name, -1, start, dur, false)
}

func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration, reported bool) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + dur.Nanoseconds(), Parent: parent, Req: t.req, Reported: reported})
	return len(t.spans) - 1
}

// reported lays daemon-stated durations back to back, centred in parent.
func (t *tracer) reported(parent int, names []string, durs []time.Duration) {
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	p := t.spans[parent]
	at := t.t0.Add(time.Duration(p.Start + (p.End-p.Start-total.Nanoseconds())/2))
	for i, name := range names {
		t.add(name, parent, at, durs[i], true)
		at = at.Add(durs[i])
	}
}

func (t *tracer) write(root, workload string) (string, error) {
	dir := filepath.Join(root, "perf", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since run start", t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
