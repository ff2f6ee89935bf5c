package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"deep/internal/fleet"
	"deep/internal/fleetd"
	"deep/internal/sched"
	"deep/internal/wire"
)

// session is one in-process server, built the way cmd/deepfleetd builds it
// with its default flags (4 workers, queue 256, cache 1024, default shard
// count, the DEEP scheduler, no rate limit), listening on loopback, plus the
// client connections that load it.
type session struct {
	in     *inputs
	fleet  *fleet.Fleet
	tracer *tracer // nil when untraced

	pub, adm    *http.Server
	serveErrs   chan error
	base, admin string

	transport *http.Transport
	client    *http.Client
	check     *checker
}

// conns is the number of load connections: one per CPU.
func conns() int { return runtime.NumCPU() }

// startSession builds and starts a server, waits for /readyz, reads the
// served cluster, and sends the warm-up calls. Everything it does counts
// toward setup_s; input generation happened before.
func startSession(in *inputs, tr *tracer) (s *session, err error) {
	f := fleet.New(fleet.Config{
		Workers:      4,
		QueueDepth:   256,
		CacheSize:    1024,
		NewScheduler: func() sched.Scheduler { return sched.NewDEEP() },
		NewCluster:   in.cluster,
	})
	s = &session{in: in, fleet: f, tracer: tr, serveErrs: make(chan error, 2)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var backend fleetd.Backend = f
	if tr != nil {
		backend = &tracedBackend{Fleet: f, t: tr}
	}
	srv, err := fleetd.New(fleetd.Config{
		Backend:     backend,
		Registry:    f.Metrics().Obs(),
		Cluster:     in.cluster(),
		MaxDeadline: 30 * time.Second,
		// No ExpvarName: expvar names are process-wide and a run builds
		// several servers.
	})
	if err != nil {
		return s, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	if s.pub, s.base, err = s.serve(handler); err != nil {
		return s, err
	}
	if s.adm, s.admin, err = s.serve(srv.AdminHandler()); err != nil {
		return s, err
	}
	s.transport = &http.Transport{
		MaxConnsPerHost:     conns(),
		MaxIdleConnsPerHost: conns(),
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: s.transport}

	if err := s.waitReady(); err != nil {
		return s, err
	}
	if s.check, err = s.fetchCluster(); err != nil {
		return s, err
	}
	var c conn
	for i := range in.warm {
		s.call(&in.warm[i], 0, &c, -1)
		c.checkPending(s.check, nil)
		if c.failed > 0 {
			return s, fmt.Errorf("warm-up call %d: %s", i, c.firstErr)
		}
	}
	return s, nil
}

func (s *session) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { s.serveErrs <- hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), nil
}

func (s *session) waitReady() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 5s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// fetchCluster reads GET /v1/cluster: the devices and registries every
// placement must stay within.
func (s *session) fetchCluster() (*checker, error) {
	resp, err := s.client.Get(s.base + "/v1/cluster")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/cluster: %d %s", resp.StatusCode, body)
	}
	spec, err := wire.DecodeClusterSpec(body)
	if err != nil {
		return nil, err
	}
	return newChecker(s.in, spec)
}

// call sends one pre-encoded deploy call on c and keeps a 200 body for the
// output check at the end of the block (lat is the call's open-loop index,
// -1 otherwise). id > 0 tags the call for the tracer. It returns when the
// last byte of the response arrived and whether the call failed outright.
func (s *session) call(r *request, id int64, c *conn, lat int) (done time.Time, failed bool) {
	n := len(r.apps)
	c.calls++
	c.deploys += int64(n)
	req, err := http.NewRequest(http.MethodPost, s.base+s.in.path(), bytes.NewReader(r.body))
	if err != nil {
		c.fail(n, err)
		return time.Now(), true
	}
	req.Header.Set("Content-Type", "application/json")
	if id > 0 {
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		c.fail(n, err)
		return time.Now(), true
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if err != nil {
		c.fail(n, err)
		return done, true
	}
	if resp.StatusCode != http.StatusOK {
		c.fail(n, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes())))
		return done, true
	}
	from := len(c.arena)
	c.arena = append(c.arena, c.buf.Bytes()...)
	c.pending = append(c.pending, pendingCheck{r: r, from: from, to: len(c.arena), lat: lat})
	return done, false
}

// postChurn applies one delta through POST /v1/churn on the admin listener
// and returns the epoch the server reports for it.
func (s *session) postChurn(body []byte) (int64, error) {
	resp, err := s.client.Post(s.admin+"/v1/churn", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/churn: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, err
	}
	return out.Epoch, nil
}

// close stops both listeners, waits for their serve loops, and drains the
// fleet.
func (s *session) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range []*http.Server{s.pub, s.adm} {
		if hs == nil {
			continue
		}
		_ = hs.Shutdown(ctx)
		if err := <-s.serveErrs; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	s.fleet.Close()
}
