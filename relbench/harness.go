package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/server"
	"relsim/internal/store"
)

// serveOptions are relsim-serve's defaults: server.New's own defaults
// (telemetry on, admission off, workload planning and delta maintenance
// on, unbounded cache) plus the flags whose default differs from them.
// The access log is discarded instead of written to stderr.
func serveOptions() []server.Option {
	return []server.Option{
		server.WithTimeout(30 * time.Second),
		server.WithSlowQuery(250 * time.Millisecond),
		server.WithAccessLog(io.Discard, false),
	}
}

// newServer builds a server over st with relsim-serve's defaults.
func newServer(st store.API, ds datasets.Dataset) *server.Server {
	return server.New(st, ds.Schema, serveOptions()...)
}

// maxConns is the client connection bound: the benchmark is sized for a
// 2-core machine, where a third connection would only queue.
const maxConns = 2

// loopback serves one server.Server over HTTP on 127.0.0.1 inside the
// benchmark process. The handler can be swapped between requests, which
// is how cold-batch gives every sample a fresh server without paying a
// new listener and connection each time.
type loopback struct {
	handler atomic.Pointer[server.Server]
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
}

func startLoopback(s *server.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	l.handler.Store(s)
	l.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.handler.Load().ServeHTTP(w, r)
	})}
	go func() { l.served <- l.hs.Serve(ln) }()
	l.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return l, nil
}

func (l *loopback) swap(s *server.Server) { l.handler.Store(s) }

// close shuts the listener down and waits until Serve has returned.
func (l *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	l.client.CloseIdleConnections()
	return err
}

// reply is one timed HTTP exchange: client latency from the first byte
// sent to the last byte read, and the server's own total from its
// Server-Timing header (-1 when absent).
type reply struct {
	status  int
	body    []byte
	latency time.Duration
	totalMS float64
}

func (l *loopback) post(path string, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, l.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("POST %s: %w", path, err)
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("POST %s: read body: %w", path, err)
	}
	r := reply{status: resp.StatusCode, body: out, latency: lat, totalMS: -1}
	if h := resp.Header.Get("Server-Timing"); h != "" {
		if t, ok := parseServerTiming(h)["total"]; ok {
			r.totalMS = t
		}
	}
	return r, nil
}

func (l *loopback) get(path string) ([]byte, error) {
	resp, err := l.client.Get(l.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return out, nil
}

// stats reads GET /stats.
func (l *loopback) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	body, err := l.get("/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// metric reads one unlabeled sample from GET /metrics.
func (l *loopback) metric(name string) (float64, error) {
	body, err := l.get("/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no sample %s", name)
}

// parseServerTiming parses a Server-Timing header of the form
// "expand;dur=0.12, plan;dur=0.40, total;dur=3.20" into milliseconds
// per metric name. Entries without a dur parameter, or with one that is
// not a number, are skipped.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			if ms, err := strconv.ParseFloat(strings.Trim(strings.TrimSpace(v), `"`), 64); err == nil {
				out[name] = ms
			}
		}
	}
	return out
}
