package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// client is the load generator's one HTTP/1.1 keep-alive connection to
// the daemon. Every request of a run — reads, writes, scrapes — goes
// through it in sequence, so at most one request is ever in flight and
// generator and daemon never compete for a core.
type client struct {
	hc    *http.Client
	base  string
	dials atomic.Int64 // connections opened; 1 for a healthy run
}

func newClient(base string) *client {
	c := &client{base: base}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed round trip. dur runs from just before the
// request is written to the last body byte read; decoding is not in it.
type reply struct {
	start  time.Time
	dur    time.Duration
	status int
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

func (c *client) do(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.dur, r.err = time.Since(r.start), err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.dur, r.status = time.Since(r.start), resp.StatusCode
	return r
}

// getJSON fetches path and decodes the body into v.
func (c *client) getJSON(path string, v any) error {
	r := c.do("GET", path, nil)
	if !r.ok() {
		return fmt.Errorf("GET %s: status %d: %v", path, r.status, r.err)
	}
	return json.Unmarshal(r.body, v)
}

// Wire forms of the /v1 responses the benchmark reads.
type candJSON struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

type traceJSON struct {
	EncodeUS   int64 `json:"encode_us"`
	SearchUS   int64 `json:"search_us"`
	Candidates int   `json:"candidates"`
}

type queryResp struct {
	Candidates []candJSON `json:"candidates"`
	Trace      *traceJSON `json:"trace"`
}

type batchResp struct {
	Results []struct {
		Candidates []candJSON `json:"candidates"`
	} `json:"results"`
	Trace *traceJSON `json:"trace"`
}

type matchResp struct {
	Matches []struct {
		Query int   `json:"query"`
		ID    int64 `json:"id"`
	} `json:"matches"`
	Pairs       int `json:"pairs"`
	Comparisons int `json:"comparisons"`
}

type insertResp struct {
	IDs []int64 `json:"ids"`
}

type entityResp struct {
	ID    int64 `json:"id"`
	Attrs []struct {
		Name  string `json:"name"`
		Value string `json:"value"`
	} `json:"attrs"`
}
