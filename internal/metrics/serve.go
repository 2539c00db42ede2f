package metrics

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// The responder answers one request per connection, so it reads no body and
// keeps nothing alive between requests. Its traffic is scrapers: a net/http
// client, curl, and readiness probes that connect and close before sending.
const (
	// maxHead caps a request head: request line and header lines together.
	maxHead = 8 << 10
	// exchangeTimeout bounds reading a request head and writing its response.
	exchangeTimeout = 5 * time.Second
	// lingerTimeout bounds the read that drains a client's unread bytes
	// after the response, so that closing does not reset the connection
	// under a response the client has yet to read.
	lingerTimeout = 500 * time.Millisecond
	// maxConns bounds the connections answered at once; further ones wait
	// in the listener's backlog.
	maxConns = 64
)

// The fixed status lines, the only ones the responder writes.
const (
	statusOK               = "HTTP/1.1 200 OK\r\n"
	statusBadRequest       = "HTTP/1.1 400 Bad Request\r\n"
	statusNotFound         = "HTTP/1.1 404 Not Found\r\n"
	statusMethodNotAllowed = "HTTP/1.1 405 Method Not Allowed\r\n"
	statusRequestTimeout   = "HTTP/1.1 408 Request Timeout\r\n"
	statusHeadTooLarge     = "HTTP/1.1 431 Request Header Fields Too Large\r\n"
	statusInternalError    = "HTTP/1.1 500 Internal Server Error\r\n"
)

// Server answers GET and HEAD /metricz with the registry's document over
// HTTP/1.1, one response per connection, closing each after its response.
// It is the whole of a node's HTTP surface: further routes join the path
// switch in route.
type Server struct {
	reg     *Registry
	ln      net.Listener
	logf    func(format string, args ...any)
	timeout time.Duration

	sem      chan struct{}
	stop     chan struct{} // closed, under mu, when shutdown begins
	accepted chan struct{} // closed when the accept loop has returned
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
}

// Serve answers on ln until Shutdown or Close, which also close ln. logf
// receives accept and render errors.
func Serve(ln net.Listener, reg *Registry, logf func(format string, args ...any)) *Server {
	return serve(ln, reg, logf, exchangeTimeout)
}

func serve(ln net.Listener, reg *Registry, logf func(string, ...any), timeout time.Duration) *Server {
	s := &Server{
		reg: reg, ln: ln, logf: logf, timeout: timeout,
		sem:      make(chan struct{}, maxConns),
		stop:     make(chan struct{}),
		accepted: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	defer close(s.accepted)
	backoff := time.Duration(0)
	for {
		select {
		case s.sem <- struct{}{}:
		case <-s.stop:
			return
		}
		c, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of descriptors and the like: back off as net/http does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.logf("metrics accept: %v; retrying in %v", err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.stop:
				return
			}
			continue
		}
		backoff = 0
		if !s.track(c) {
			<-s.sem
			_ = c.Close() // shutting down: the connection is not answered
			continue
		}
		go s.serveConn(c)
	}
}

// track registers c as in flight, or reports false once shutdown began.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stop:
		return false
	default:
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) serveConn(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close() // the response is written or abandoned either way
		<-s.sem
		s.wg.Done()
	}()
	_ = c.SetReadDeadline(time.Now().Add(s.timeout)) // fails only on a closed conn, which the read then reports
	resp := s.answer(c)
	if resp == nil {
		return
	}
	_ = c.SetWriteDeadline(time.Now().Add(s.timeout))
	if _, err := c.Write(resp); err != nil {
		return // the client went away mid-response
	}
	// Half-close, then read out what the client sent beyond the head until
	// it closes too, so that no unread byte turns the close into a reset.
	if tc, ok := c.(*net.TCPConn); ok && tc.CloseWrite() == nil {
		_ = c.SetReadDeadline(time.Now().Add(lingerTimeout))
		_, _ = io.Copy(io.Discard, io.LimitReader(c, maxHead)) // EOF, timeout or limit all end the linger
	}
}

// answer reads one request head from r and returns its response: nil for
// a client that closes or fails before sending a byte.
func (s *Server) answer(r io.Reader) []byte {
	head, status := readHead(r)
	if status == "" && len(head) == 0 {
		return nil
	}
	var body []byte
	var extra string
	if status == "" {
		status, extra, body = s.route(head)
	}
	if body == nil {
		body = []byte(status[len("HTTP/1.1 ") : len(status)-2]) // "404 Not Found"
		body = append(body, '\n')
		extra += "Content-Type: text/plain; charset=utf-8\r\n"
	}
	var out bytes.Buffer
	out.Grow(len(status) + len(extra) + 64 + len(body))
	out.WriteString(status)
	out.WriteString(extra)
	out.WriteString("Date: ")
	out.Write(time.Now().UTC().AppendFormat(nil, "Mon, 02 Jan 2006 15:04:05 GMT"))
	out.WriteString("\r\nContent-Length: ")
	out.WriteString(strconv.Itoa(len(body)))
	out.WriteString("\r\nConnection: close\r\n\r\n")
	if !bytes.HasPrefix(head, []byte("HEAD ")) { // a HEAD answer has no body, whatever its status
		out.Write(body)
	}
	return out.Bytes()
}

// route answers a well-formed request head: its status line, header lines
// beyond Date, Content-Length and Connection, and body (nil for the status
// text).
func (s *Server) route(head []byte) (status, extra string, body []byte) {
	line := head
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	line = bytes.TrimSuffix(line, []byte("\r"))
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || len(method) == 0 || (string(proto) != "HTTP/1.1" && string(proto) != "HTTP/1.0") {
		return statusBadRequest, "", nil
	}
	path, _, _ := bytes.Cut(target, []byte("?")) // the query is ignored, as ServeMux does
	switch string(path) {
	case "/metricz":
		if string(method) != "GET" && string(method) != "HEAD" {
			return statusMethodNotAllowed, "Allow: GET, HEAD\r\n", nil
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.reg); err != nil {
			s.logf("metricz encode: %v", err)
			return statusInternalError, "", nil
		}
		return statusOK, "Content-Type: application/json\r\n", buf.Bytes()
	default:
		return statusNotFound, "", nil
	}
}

// readHead reads r up to the blank line that ends a request head, within
// maxHead bytes. It returns the head and no status, or what it read and an
// error status to answer with, or neither when the client sent nothing
// before closing or failing.
func readHead(r io.Reader) (head []byte, status string) {
	buf := make([]byte, maxHead)
	n := 0
	for {
		m, err := r.Read(buf[n:])
		n += m
		if end := headEnd(buf[:n]); end >= 0 {
			return buf[:end], ""
		}
		var ne net.Error
		switch {
		case n == len(buf):
			return buf, statusHeadTooLarge
		case err == nil:
		case errors.As(err, &ne) && ne.Timeout():
			return buf[:n], statusRequestTimeout
		case n == 0:
			return nil, ""
		default: // the client stopped sending mid-head
			return buf[:n], statusBadRequest
		}
	}
}

// headEnd returns the length of the head in buf through its blank line
// (CRLF or bare LF line ends), or -1 before one arrives.
func headEnd(buf []byte) int {
	end := -1
	if i := bytes.Index(buf, []byte("\n\r\n")); i >= 0 {
		end = i + 3
	}
	if i := bytes.Index(buf, []byte("\n\n")); i >= 0 && (end < 0 || i+2 < end) {
		end = i + 2
	}
	return end
}

// Shutdown stops accepting, closing the listener, and waits for the
// responses in flight until ctx ends; then it closes what is left and
// returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.stopAccepting()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Close stops accepting and closes every connection at once.
func (s *Server) Close() error {
	err := s.stopAccepting()
	s.closeConns()
	s.wg.Wait()
	return err
}

func (s *Server) stopAccepting() error {
	s.mu.Lock()
	select {
	case <-s.stop: // a second Shutdown or Close
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	<-s.accepted
	if errors.Is(err, net.ErrClosed) {
		err = nil // a second Shutdown or Close
	}
	return err
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close() // its goroutine sees the error and returns
	}
}
