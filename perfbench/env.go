package main

import (
	"net"
	"net/http"
	"time"

	"distcover/client"
	"distcover/internal/cluster"
	"distcover/server"
)

// node is one in-process coverd: the server behind a loopback HTTP
// listener, optionally also serving the cluster peer protocol.
type node struct {
	srv  *server.Server
	hs   *http.Server
	addr string // host:port of the HTTP listener
	url  string
	done chan struct{}

	peer     *cluster.Peer
	peerAddr string
	peerDone chan struct{}
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode opens a coverd server with cfg and serves it on ln.
func startNode(ln net.Listener, cfg server.Config) (*node, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	n.url = "http://" + n.addr
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// startPeerNode starts a coverd that also serves the cluster peer protocol,
// with the peer's telemetry feeding the server's /metrics, as
// coverd -peer-listen wires it.
func startPeerNode() (*node, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	n, err := startNode(ln, server.Config{})
	if err != nil {
		return nil, err
	}
	pln, err := listenLoopback()
	if err != nil {
		n.close()
		return nil, err
	}
	n.peer = cluster.NewPeer()
	n.peer.Tracer = n.srv.Metrics().ClusterTracer()
	n.peerAddr = pln.Addr().String()
	n.peerDone = make(chan struct{})
	go func() {
		defer close(n.peerDone)
		n.peer.Serve(pln) // returns cluster.ErrPeerClosed on close
	}()
	return n, nil
}

// close stops accepting, shuts the peer listener, then stops the server's
// worker pool (writing its final WAL snapshot when durable), and returns
// once every goroutine it started has exited.
func (n *node) close() {
	n.hs.Close()
	<-n.done
	if n.peer != nil {
		n.peer.Close()
		<-n.peerDone
	}
	n.srv.Close()
}

// newClient returns a client for base whose requests go through tp.
func newClient(base string, tp *transport) *client.Client {
	c := client.New(base)
	c.SetHTTPClient(&http.Client{Transport: tp, Timeout: 2 * time.Minute})
	return c
}

func newTransport(cfg config) *transport {
	return &transport{
		base: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		},
		tamper: cfg.tamper,
	}
}

func (t *transport) closeIdle() {
	if b, ok := t.base.(*http.Transport); ok {
		b.CloseIdleConnections()
	}
}
