package metrics

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testRegistry holds a few fixed leaves and the document it renders, as
// trustd's handler wrote it: json.Encoder, two-space indent, trailing newline.
func testRegistry(t testing.TB) (*Registry, []byte) {
	reg := New()
	var served atomic.Uint64
	served.Add(7)
	reg.Counter("repserver.incremental_served", &served)
	reg.Gauge("per_type", func() any { return map[string]int{"assess": 3, "submit.batch": 2} })
	reg.Gauge("ledger.group_commit.size_p50", func() any { return 8.5 })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reg); err != nil {
		t.Fatal(err)
	}
	return reg, buf.Bytes()
}

// startResponder serves reg on a loopback port with the given exchange
// timeout and shuts it down when the test ends.
func startResponder(t *testing.T, reg *Registry, timeout time.Duration) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve(ln, reg, t.Logf, timeout)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return s
}

// TestMetriczResponder sends each raw request on its own connection and
// reads back one response, or none, followed by the connection's close.
func TestMetriczResponder(t *testing.T) {
	reg, doc := testRegistry(t)
	const timeout = 300 * time.Millisecond
	s := startResponder(t, reg, timeout)
	addr := s.ln.Addr().String()
	for _, tc := range []struct {
		name   string
		send   string
		stall  bool   // keep the connection open after send, past the timeout
		status int    // 0: no response at all; 200 answers doc, others their status text
		allow  string // the Allow header expected
		head   bool
	}{
		{name: "GET", send: "GET /metricz HTTP/1.1\r\nHost: x\r\nUser-Agent: Go-http-client/1.1\r\n\r\n", status: 200},
		{name: "HEAD", send: "HEAD /metricz HTTP/1.1\r\nHost: x\r\n\r\n", status: 200, head: true},
		{name: "query ignored", send: "GET /metricz?x HTTP/1.1\r\nHost: x\r\n\r\n", status: 200},
		{name: "POST", send: "POST /metricz HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody", status: 405, allow: "GET, HEAD"},
		{name: "another path", send: "GET /debug/pprof/ HTTP/1.1\r\nHost: x\r\n\r\n", status: 404},
		{name: "HTTP/1.0 and bare LF", send: "GET /metricz HTTP/1.0\n\n", status: 200},
		{name: "no version", send: "GET /metricz\r\n\r\n", status: 400},
		{name: "head past the cap", send: "GET /metricz HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxHead) + "\r\n\r\n", status: 431},
		{name: "connect and close", send: "", status: 0},
		{name: "stalled mid-head", send: "GET /metricz HTTP/1.1\r\nHo", stall: true, status: 408},
		{name: "stalled before a byte", send: "", stall: true, status: 408},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			if _, err := io.WriteString(c, tc.send); err != nil {
				t.Fatal(err)
			}
			if !tc.stall {
				_ = c.(*net.TCPConn).CloseWrite() // the request is all sent
			}
			start := time.Now()
			_ = c.SetReadDeadline(start.Add(10 * time.Second))
			raw, err := io.ReadAll(c)
			if err != nil {
				t.Fatalf("read to the close: %v (got %q)", err, raw)
			}
			if tc.status == 0 {
				if len(raw) != 0 {
					t.Fatalf("answered %q, want nothing", raw)
				}
				return
			}
			if tc.stall && time.Since(start) < timeout/2 {
				t.Fatalf("a stalled client was answered after %v, before the %v deadline", time.Since(start), timeout)
			}
			method := "GET"
			if tc.head {
				method = "HEAD"
			}
			resp, rest := readOne(t, raw, method)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %q, want %d", resp.Status, tc.status)
			}
			if !resp.Close || !bytes.Contains(raw, []byte("\r\nConnection: close\r\n")) {
				t.Fatalf("%q: every response closes its connection", raw)
			}
			if _, err := time.Parse(time.RFC1123, resp.Header.Get("Date")); err != nil {
				t.Fatalf("Date: %v", err)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("Allow %q, want %q", got, tc.allow)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d bytes after the response: %q", len(rest), rest)
			}
			switch {
			case tc.status == 200:
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("Content-Type %q", ct)
				}
				if resp.ContentLength != int64(len(doc)) {
					t.Fatalf("Content-Length %d, want the document's %d", resp.ContentLength, len(doc))
				}
				if !tc.head && !bytes.Equal(body, doc) {
					t.Fatalf("body\n%s\nwant\n%s", body, doc)
				}
			default:
				if want := strconv.Itoa(tc.status) + " " + http.StatusText(tc.status) + "\n"; string(body) != want {
					t.Fatalf("body %q, want %q", body, want)
				}
			}
			if tc.head && len(body) != 0 {
				t.Fatalf("HEAD answered a %d-byte body", len(body))
			}
		})
	}
}

// readOne parses the one response raw holds and returns what follows it.
func readOne(t testing.TB, raw []byte, method string) (*http.Response, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(raw))
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("parse %q: %v", raw, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("body of %q: %v", raw, err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	rest, _ := io.ReadAll(br) // a bytes.Reader fails only at its end
	return resp, rest
}

// TestMetriczNetHTTPClient is a scraper's round trip: a keep-alive net/http
// transport, a body closed before its EOF (the JSON decoder leaves the
// trailing newline), again and again; every scrape decodes the document the
// registry renders in process.
func TestMetriczNetHTTPClient(t *testing.T) {
	reg, doc := testRegistry(t)
	s := startResponder(t, reg, exchangeTimeout)
	var want map[string]any
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone(), Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < 20; i++ {
		resp, err := client.Get("http://" + s.ln.Addr().String() + "/metricz")
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		var got map[string]any
		err = json.NewDecoder(resp.Body).Decode(&got)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d: decode: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("scrape %d: %s, Content-Type %q", i, resp.Status, resp.Header.Get("Content-Type"))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scrape %d decoded %v, want %v", i, got, want)
		}
	}
}

// TestMetriczShutdown: Shutdown stops accepting at once, lets a response in
// flight finish within its context, and past the context closes what is
// left and says so.
func TestMetriczShutdown(t *testing.T) {
	reg, doc := testRegistry(t)
	s := startResponder(t, reg, 5*time.Second)
	addr := s.ln.Addr().String()

	inFlight, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inFlight.Close() }()
	if _, err := io.WriteString(inFlight, "GET /metricz HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	waitConns(t, s, 1)
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	for { // the listener closes before the response in flight is written
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		_ = c.Close()
		time.Sleep(time.Millisecond)
	}
	if _, err := io.WriteString(inFlight, "Host: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(inFlight)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := readOne(t, raw, "GET"); resp.StatusCode != 200 {
		t.Fatalf("the response in flight: %s", resp.Status)
	} else if body, _ := io.ReadAll(resp.Body); !bytes.Equal(body, doc) {
		t.Fatalf("the response in flight: body %q", body)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s = startResponder(t, reg, 5*time.Second)
	stalled, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stalled.Close() }()
	waitConns(t, s, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past its context: %v, want the deadline", err)
	}
	_ = stalled.SetReadDeadline(time.Now().Add(time.Second))
	if raw, err := io.ReadAll(stalled); err != nil || len(raw) != 0 {
		t.Fatalf("a connection closed at shutdown read %q, %v; want nothing, then EOF", raw, err)
	}
}

// waitConns waits until s has accepted n connections it has not finished.
func waitConns(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		got := len(s.conns)
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections in flight, want %d", got, n)
		}
	}
}

// FuzzMetriczRequest feeds raw bytes to the responder as one connection's
// request stream: it never panics, writes at most one response (the one
// Write of answer's bytes), and that response starts with one of its fixed
// status lines and carries exactly its Content-Length of body (none for
// HEAD).
func FuzzMetriczRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /metricz HTTP/1.1\r\nHost: x\r\n\r\n",
		"HEAD /metricz HTTP/1.1\r\n\r\n",
		"GET /metricz?x HTTP/1.0\n\n",
		"POST /metricz HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
		"GET / HTTP/1.1\r\n\r\nGET /metricz HTTP/1.1\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET /metricz HTTP/1.1\r\nHo",
		"\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	reg, _ := testRegistry(f)
	statuses := []string{statusOK, statusBadRequest, statusNotFound, statusMethodNotAllowed,
		statusRequestTimeout, statusHeadTooLarge, statusInternalError}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := &Server{reg: reg, logf: t.Logf}
		got := s.answer(bytes.NewReader(raw))
		if got == nil {
			if len(raw) != 0 {
				t.Fatalf("%q went unanswered", raw)
			}
			return
		}
		known := false
		for _, st := range statuses {
			known = known || bytes.HasPrefix(got, []byte(st))
		}
		if !known {
			t.Fatalf("response %q starts with no fixed status line", got)
		}
		method := "GET"
		if bytes.HasPrefix(raw, []byte("HEAD ")) {
			method = "HEAD"
		}
		if _, rest := readOne(t, got, method); len(rest) != 0 {
			t.Fatalf("%d bytes after the one response: %q", len(rest), rest)
		}
	})
}
