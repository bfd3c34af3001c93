package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gsim/internal/engine"
	"gsim/internal/fleet"
	"gsim/internal/server"
	"gsim/internal/snapshot"
)

// target is one simulation a client drives: an in-process server session,
// a session over HTTP, or (in the layered job) an engine called directly.
type target interface {
	// run steps one batch and returns checksum_out per lane; a scalar
	// target given a gang batch runs lane 0.
	run(b *batch) ([]string, error)
	reset() error
	snapshot() ([]byte, error)
	restore(blob []byte) error
	close()
}

// peeks returns the values of the batch's closing peeks, one per lane.
func peeks(res []server.OpResult, lanes int) []string {
	out := make([]string, 0, lanes)
	for _, r := range res[len(res)-lanes:] {
		out = append(out, r.Value)
	}
	return out
}

// sessionTarget drives a server.Session in process.
type sessionTarget struct {
	s     *server.Session
	lanes int
}

func (t *sessionTarget) run(b *batch) ([]string, error) {
	res, err := t.s.Apply(context.Background(), b.opsFor(t.lanes))
	if err != nil {
		return nil, err
	}
	return peeks(res, t.lanes), nil
}

func (t *sessionTarget) reset() error {
	_, err := t.s.Apply(context.Background(), []server.Op{{Op: "reset"}})
	return err
}

func (t *sessionTarget) snapshot() ([]byte, error) { return t.s.Snapshot() }
func (t *sessionTarget) restore(blob []byte) error { return t.s.Restore(blob) }
func (t *sessionTarget) close()                    { t.s.Close() }

// httpTarget drives a session through the JSON API of a replica or router.
type httpTarget struct {
	c     *http.Client
	url   string // base URL of the session: .../v1/sessions/{id}
	lanes int
}

// call sends one JSON request and decodes the reply into out.
func call(c *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// createHTTP opens a session by POST to base (a replica or the router).
func createHTTP(c *http.Client, base, src string, spec server.SessionSpec) (*httpTarget, server.CreateResponse, error) {
	var resp server.CreateResponse
	err := call(c, "POST", base+"/v1/sessions", server.CreateRequest{FIRRTL: src, SessionSpec: spec}, &resp)
	if err != nil {
		return nil, resp, err
	}
	return &httpTarget{c: c, url: base + "/v1/sessions/" + resp.Session, lanes: max(spec.Lanes, 1)}, resp, nil
}

func (t *httpTarget) apply(ops []server.Op) ([]server.OpResult, error) {
	var resp server.OpsResponse
	err := call(t.c, "POST", t.url+"/ops", server.OpsRequest{Ops: ops}, &resp)
	return resp.Results, err
}

func (t *httpTarget) run(b *batch) ([]string, error) {
	ops := b.opsFor(t.lanes)
	res, err := t.apply(ops)
	if err != nil {
		return nil, err
	}
	if len(res) != len(ops) {
		return nil, fmt.Errorf("%d results for %d ops", len(res), len(ops))
	}
	return peeks(res, t.lanes), nil
}

func (t *httpTarget) reset() error {
	_, err := t.apply([]server.Op{{Op: "reset"}})
	return err
}

func (t *httpTarget) snapshot() ([]byte, error) {
	var resp server.SnapshotResponse
	if err := call(t.c, "POST", t.url+"/snapshot", nil, &resp); err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(resp.Snapshot)
}

func (t *httpTarget) restore(blob []byte) error {
	req := server.RestoreRequest{Snapshot: base64.StdEncoding.EncodeToString(blob)}
	return call(t.c, "POST", t.url+"/restore", req, nil)
}

// vcd fetches lane 0's captured waveform.
func (t *httpTarget) vcd() ([]byte, error) {
	var resp server.VCDResponse
	if err := call(t.c, "GET", t.url+"/vcd?lane=0", nil, &resp); err != nil {
		return nil, err
	}
	return []byte(resp.VCD), nil
}

func (t *httpTarget) close() { _ = call(t.c, "DELETE", t.url, nil, nil) }

// engineTarget calls the engine and snapshot layers directly, with a span
// around each call; exactly one of sim and gang is set.
type engineTarget struct {
	sim           engine.Sim
	gang          *engine.Gang
	stimID, sumID int
	tr            *tracer
	stepTime      time.Duration // summed over run calls
	perCycle      []float64     // µs per cycle of each run call
}

func (t *engineTarget) run(b *batch) ([]string, error) {
	start := time.Now()
	end := t.tr.begin("engine.step")
	for _, st := range b.steps {
		if t.gang != nil {
			for l, v := range st.stim {
				t.gang.Poke(l, t.stimID, v)
			}
		} else {
			t.sim.Poke(t.stimID, st.stim[0])
		}
		for c := 0; c < st.n; c++ {
			if t.gang != nil {
				t.gang.Step()
			} else {
				t.sim.Step()
			}
		}
	}
	end()
	d := time.Since(start)
	t.stepTime += d
	t.perCycle = append(t.perCycle, us(d)/float64(b.cycles))
	if t.gang == nil {
		return []string{t.sim.Peek(t.sumID).String()}, nil
	}
	out := make([]string, t.gang.Lanes())
	for l := range out {
		out[l] = t.gang.Peek(l, t.sumID).String()
	}
	return out, nil
}

func (t *engineTarget) reset() error {
	if t.gang != nil {
		t.gang.Reset()
	} else {
		t.sim.Reset()
	}
	return nil
}

func (t *engineTarget) snapshot() ([]byte, error) {
	defer t.tr.begin("snapshot.encode")()
	if t.gang != nil {
		return snapshot.SaveLane(t.gang, 0)
	}
	return snapshot.Save(t.sim)
}

func (t *engineTarget) restore(blob []byte) error {
	defer t.tr.begin("snapshot.decode")()
	if t.gang != nil {
		return snapshot.RestoreLane(t.gang, 0, blob)
	}
	return snapshot.Restore(t.sim, blob)
}

func (t *engineTarget) close() {
	if t.gang != nil {
		t.gang.Close()
	} else {
		t.sim.Close()
	}
}

// stats returns the engine's counters (summed over lanes for a gang).
func (t *engineTarget) stats() engine.Stats {
	if t.gang != nil {
		return t.gang.AggregateStats()
	}
	return *t.sim.Stats()
}

// rig is one replica (a server.Manager's handler) behind a fleet router,
// both served on loopback listeners inside this process.
type rig struct {
	replicaURL, routerURL string
	client                *http.Client
	router                *fleet.Router
	servers               []*http.Server
	done                  chan error // one send per serve loop, buffered for both
}

func startRig(m *server.Manager) (*rig, error) {
	r := &rig{client: &http.Client{}, router: fleet.NewRouter(fleet.Config{}), done: make(chan error, 2)}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		r.servers = append(r.servers, srv)
		go func() { r.done <- srv.Serve(ln) }()
		return "http://" + ln.Addr().String(), nil
	}
	var err error
	if r.replicaURL, err = serve(m.Handler()); err != nil {
		r.stop()
		return nil, err
	}
	r.router.Register("replica-0", r.replicaURL)
	if r.routerURL, err = serve(r.router.Handler()); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// stop closes both servers and the router and waits for the serve loops.
func (r *rig) stop() {
	for _, s := range r.servers {
		_ = s.Close()
	}
	for range r.servers {
		if err := <-r.done; !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# serve loop ended: %v\n", err)
		}
	}
	r.router.Close()
	r.client.CloseIdleConnections()
}
