package netchaos

import (
	"io"
	"net"
	"sync"
	"time"
)

// Proxy carries real TCP connections through the injector, so a drill can
// fault the wire between a coordinator and a worker whatever client dials
// it, in one process (internal/cluster's TestPartitionDrillFailover) or
// across OS processes. The proxy listens on its own address; the faulted
// peer is known to the fleet by the proxy address, and the proxy forwards
// to the peer's real address.
//
// Fault mapping for stream transport:
//
//   - partition (blockRequests): new connections are accepted and
//     immediately closed, and all established connections are severed;
//   - drop: the connection is closed before any bytes are forwarded;
//   - latency: forwarding of each accepted connection is delayed;
//   - one-way partition / reset: client→peer bytes flow (the peer sees and
//     processes the request) but peer→client bytes are discarded and the
//     connection is then severed.
type Proxy struct {
	in     *Injector
	ln     net.Listener
	target string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy starts a proxy on listenAddr (use "127.0.0.1:0" for an
// ephemeral port) forwarding to target ("host:port"). Fault decisions are
// keyed by target, so Injector controls like Partition(target) and
// SlowHost(target) apply to every connection through this proxy.
func NewProxy(listenAddr, target string, in *Injector) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{in: in, ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	go p.severLoop()
	return p, nil
}

// Addr returns the proxy's listen address ("host:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Target returns the upstream address the proxy forwards to.
func (p *Proxy) Target() string { return p.target }

// Close stops the proxy and severs all connections through it.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.severAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.serve(c)
	}
}

// severLoop enforces partitions on established connections: a partition
// raised mid-flight must cut flows that are already open, not just refuse
// new ones.
func (p *Proxy) severLoop() {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for range t.C {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		if p.in.RequestsBlocked(p.target) {
			p.severAll()
		}
	}
}

func (p *Proxy) severAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	defer client.Close()

	v := p.in.traverse(p.target)
	if v.blocked || v.drop {
		return
	}
	if v.delay > 0 {
		p.in.delays.Add(1)
		time.Sleep(v.delay)
	}

	upstream, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		return
	}
	defer upstream.Close()
	if !p.track(client) || !p.track(upstream) {
		return
	}
	defer p.untrack(client)
	defer p.untrack(upstream)

	done := make(chan struct{}, 2)
	// client → upstream: always forwarded (the peer sees the request even
	// under a one-way partition).
	go func() {
		io.Copy(upstream, client)
		if tc, ok := upstream.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// upstream → client: discarded when the response path is cut.
	go func() {
		if v.reset {
			io.Copy(io.Discard, upstream)
			p.in.resets.Add(1)
			client.Close()
		} else {
			buf := make([]byte, 32<<10)
			for {
				if p.in.ResponsesBlocked(p.target) {
					p.in.resets.Add(1)
					client.Close()
					break
				}
				upstream.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				n, err := upstream.Read(buf)
				if n > 0 {
					if _, werr := client.Write(buf[:n]); werr != nil {
						break
					}
				}
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						continue
					}
					break
				}
			}
			if tc, ok := client.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}
