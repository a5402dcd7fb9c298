package main

import (
	"net/http"
	"testing"
)

// TestServerTimeouts holds the daemon's server to its timeouts: the header and
// idle bounds are set, so a client that never finishes its request header
// cannot hold a connection forever, and the body and response bounds are not,
// since a /load body or a streamed product may take longer than any fixed
// bound.
func TestServerTimeouts(t *testing.T) {
	srv := newServer("127.0.0.1:8347", http.NotFoundHandler())
	if srv.Addr != "127.0.0.1:8347" || srv.Handler == nil {
		t.Fatalf("server on %q with handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want %v and %v, both positive", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v; want both unset", srv.ReadTimeout, srv.WriteTimeout)
	}
}
