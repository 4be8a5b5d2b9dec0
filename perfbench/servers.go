package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
)

// opHeader carries a span id from the benchmark's client (or its fleet
// RoundTripper) to the benchmark's middleware on the server side, so the
// server-side span can name the client-side span that caused it.
const opHeader = "X-Perfbench-Span"

// server is an in-process serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startServer starts cfg's server on 127.0.0.1. When tr is non-nil, the
// benchmark's middleware records a span named spanName around every
// request to a path in paths.
func startServer(cfg serve.Config, tr *tracer, spanName string, paths ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h := s.srv.Handler()
	if tr != nil {
		h = middleware(h, tr, spanName, paths)
	}
	s.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, then stops the server.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx)
	<-s.done
	s.srv.Close()
}

func middleware(next http.Handler, tr *tracer, name string, paths []string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traced := false
		for _, p := range paths {
			traced = traced || r.URL.Path == p
		}
		if !traced {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.record(span{id: tr.newID(), parent: parent, name: name, start: start, end: time.Now()})
	})
}

// client posts to the servers over keep-alive loopback connections.
type client struct {
	http *http.Client
}

func newClient() *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	tr.DisableCompression = true
	return &client{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body and returns the status, the response body and the
// latency up to the last body byte. spanID, when non-zero, is sent in
// opHeader.
func (c *client) post(url string, body []byte, spanID int64) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(spanID, 10))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, lat, err
}

// ready waits until the server answers /readyz.
func (c *client) ready(s *server) error {
	resp, err := c.http.Get(s.url + "/readyz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/readyz: status %d", s.url, resp.StatusCode)
	}
	return nil
}
