package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
)

// stack is one serving stack under test: a single server behind
// serve.Handler, or a coordinator behind cluster.Handler fronting two
// workers behind serve.Handler, all on loopback HTTP in this process.
type stack struct {
	url     string
	srv     *serve.Server   // single-server stacks
	workers []*serve.Server // fleet stacks
	coord   *cluster.Coordinator
	jrnl    *journal.Journal
	dir     string // journal directory, removed on close
	https   []*http.Server
}

// listen serves h on a fresh loopback port.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

func (s *stack) openJournal(dir string) error {
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncBatch})
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	s.jrnl, s.dir = j, dir
	return nil
}

// newServeStack builds one 4-device server, journaled when dir != "".
func newServeStack(dir string) (*stack, error) {
	s := &stack{}
	cfg := serve.Config{Devices: 4}
	if dir != "" {
		if err := s.openJournal(dir); err != nil {
			return nil, err
		}
		cfg.Journal = s.jrnl
	}
	s.srv = serve.NewServer(cfg)
	url, err := s.listen(serve.Handler(s.srv))
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = url
	return s, nil
}

// newFleetStack builds a journaled coordinator over two 2-device workers:
// the same four devices as the single-server stacks.
func newFleetStack(dir string) (*stack, error) {
	s := &stack{}
	var peers []string
	for i := 0; i < 2; i++ {
		w := serve.NewServer(serve.Config{Devices: 2})
		s.workers = append(s.workers, w)
		url, err := s.listen(serve.Handler(w))
		if err != nil {
			s.close()
			return nil, err
		}
		peers = append(peers, url)
	}
	if err := s.openJournal(dir); err != nil {
		s.close()
		return nil, err
	}
	s.coord = cluster.NewCoordinator(cluster.Config{Peers: peers, Journal: s.jrnl})
	url, err := s.listen(cluster.Handler(s.coord))
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = url
	return s, nil
}

// servers lists every serve.Server in the stack.
func (s *stack) servers() []*serve.Server {
	if s.srv != nil {
		return []*serve.Server{s.srv}
	}
	return s.workers
}

// close stops listeners, coordinator and servers, then the journal, and
// removes the journal directory.
func (s *stack) close() error {
	var errs []error
	for _, hs := range s.https {
		errs = append(errs, hs.Close())
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, srv := range s.servers() {
		if _, err := srv.Drain(30 * time.Second); err != nil {
			errs = append(errs, fmt.Errorf("drain: %w", err))
		}
	}
	if s.jrnl != nil {
		errs = append(errs, s.jrnl.Close())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// scratchDir returns a fresh directory under root for one stack's files.
func scratchDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}
