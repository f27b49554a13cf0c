package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// startServe runs serveUntil on a loopback listener and returns its
// address, the cancel that stops it, and the channel its result arrives on
// (closed after the result).
func startServe(t *testing.T, h http.Handler) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serveUntil(ctx, ln, h)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		for range done {
		}
	})
	return ln.Addr().String(), cancel, done
}

func TestServeUntilDrainsInFlightRequest(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	addr, cancel, done := startServe(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "solved")
	}))

	type reply struct {
		body string
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replies <- reply{string(body), err}
	}()

	<-started
	cancel()
	// Shutdown closes the listener first; wait for that so the request is
	// known to be in flight while the server drains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5s after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("serveUntil returned %v before the in-flight request finished", err)
	default:
	}
	close(release)

	if r := <-replies; r.err != nil || r.body != "solved" {
		t.Fatalf("in-flight request got %q, %v; want the full answer", r.body, r.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serveUntil after a complete drain: %v", err)
	}
}

func TestServeUntilClosesStalledHeaders(t *testing.T) {
	// Restored by a cleanup registered before startServe's, so it runs
	// after the server has stopped reading it.
	saved := serveReadHeaderTimeout
	t.Cleanup(func() { serveReadHeaderTimeout = saved })
	serveReadHeaderTimeout = 100 * time.Millisecond
	addr, _, _ := startServe(t, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("handler ran for a request whose headers never finished")
	}))

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A request line and one header, but never the blank line ending them.
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: example\r\n"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("connection with stalled headers not closed by the server: %v", err)
	}
}
