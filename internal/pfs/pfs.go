// Package pfs models a PVFS/OrangeFS-style parallel file system: files are
// striped round-robin across a set of storage servers, and each server
// services the write requests it receives under a configurable scheduling
// policy. Contention at these servers is the interference that CALCioM
// mitigates.
package pfs

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// SchedPolicy selects how a server services concurrent requests.
type SchedPolicy int

const (
	// Share interleaves all requests, processor-sharing the server
	// bandwidth proportionally to request weights (the default behaviour
	// of an uncoordinated file system: everyone interferes).
	Share SchedPolicy = iota
	// FIFO services one request at a time per server, in arrival order
	// (the "network request scheduler" baseline from the paper's intro).
	FIFO
	// Exclusive services one *application* at a time per server: requests
	// from the active app share the server; other apps queue (an
	// idealized server-side app-at-a-time scheduler, cf. Qian et al. and
	// Song et al. in the paper's related work).
	Exclusive
)

// String implements fmt.Stringer.
func (p SchedPolicy) String() string {
	switch p {
	case Share:
		return "share"
	case FIFO:
		return "fifo"
	case Exclusive:
		return "exclusive"
	}
	return fmt.Sprintf("SchedPolicy(%d)", int(p))
}

// Config describes a deployed file system.
type Config struct {
	Servers     int     // number of storage servers
	StripeBytes int64   // stripe unit
	ServerBW    float64 // per-server persistent bandwidth (bytes/s)
	CacheBW     float64 // per-server cache ingest bandwidth (0 = no cache)
	CacheBytes  float64 // per-server cache size in bytes (0 = no cache)
	Policy      SchedPolicy

	// Fabric, when non-nil, switches the transfer model from per-server
	// processor sharing with static injection caps to global max-min
	// fairness across an explicit network: each server becomes a fabric
	// link and each request crosses its client's NIC link too (see
	// Request.ClientLink). The write-back cache is not supported in this
	// mode.
	Fabric *fabric.Fabric
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("pfs: need at least one server, got %d", c.Servers)
	}
	if c.StripeBytes <= 0 {
		return fmt.Errorf("pfs: stripe unit must be positive, got %d", c.StripeBytes)
	}
	if c.ServerBW <= 0 {
		return fmt.Errorf("pfs: server bandwidth must be positive, got %v", c.ServerBW)
	}
	if c.Fabric != nil && c.CacheBytes > 0 {
		return fmt.Errorf("pfs: write-back cache is not supported with an explicit fabric")
	}
	return nil
}

// System is a deployed parallel file system. A System is reusable across
// simulation runs: Reset returns it to its just-deployed state while
// retaining everything that is expensive to rebuild (servers, stores, the
// file table with its cached request names, pooled server requests and wait
// groups, striping scratch), so a sweep re-running the same scenario pays
// the object graph once.
type System struct {
	eng     *sim.Engine
	cfg     Config
	servers []*Server
	nfiles  int

	// files caches File objects by name across runs. Logical layout state
	// (the first server, derived from creation order) is recomputed on
	// every Create, so a reused file behaves exactly like a fresh one.
	files map[string]*File

	// Hot-path pools and scratch: per-transfer striping scratch, pooled
	// wait groups, and pooled server requests with their pre-bound
	// completion closures.
	perScratch []int64
	wgFree     []*sim.WaitGroup
	reqFree    []*serverReq
}

// New deploys a file system on the engine.
func New(eng *sim.Engine, cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{eng: eng, cfg: cfg, files: make(map[string]*File)}
	s.perScratch = make([]int64, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		s.servers = append(s.servers, newServer(s, eng, i, cfg))
	}
	return s
}

// Reset returns the file system to its just-deployed state on a freshly
// reset engine: no files laid out, empty server queues, empty stores.
// Retained across Reset: the server and store objects, cached File objects
// and their request-name strings, pooled server requests and wait groups.
// In explicit-fabric mode the fabric is owned by the caller and must be
// reset separately (see fabric.Fabric.Reset).
func (s *System) Reset() {
	s.nfiles = 0
	for _, sv := range s.servers {
		for i := range sv.queue {
			sv.queue[i] = nil
		}
		sv.queue = sv.queue[:0]
		sv.current = nil
		sv.curApp = ""
		sv.inFlite = 0
		sv.store.Reset()
	}
}

// getWG pops a pooled wait group or builds a fresh one.
func (s *System) getWG() *sim.WaitGroup {
	if n := len(s.wgFree); n > 0 {
		wg := s.wgFree[n-1]
		s.wgFree[n-1] = nil
		s.wgFree = s.wgFree[:n-1]
		return wg
	}
	return sim.NewWaitGroup(s.eng)
}

func (s *System) putWG(wg *sim.WaitGroup) {
	s.wgFree = append(s.wgFree, wg)
}

// getReq pops a pooled server request or builds one with its completion
// closure pre-bound, so submitting a request never allocates in steady
// state.
func (s *System) getReq() *serverReq {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree[n-1] = nil
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	r := &serverReq{}
	r.completeFn = r.complete
	return r
}

func (s *System) putReq(r *serverReq) {
	r.sv = nil
	r.client = nil
	r.wg = nil
	s.reqFree = append(s.reqFree, r)
}

// Config returns the deployment configuration.
func (s *System) Config() Config { return s.cfg }

// Servers returns the server list.
func (s *System) Servers() []*Server { return s.servers }

// AggregateBW returns the sum of persistent server bandwidths — the peak
// sustained throughput of the file system.
func (s *System) AggregateBW() float64 {
	return float64(s.cfg.Servers) * s.cfg.ServerBW
}

// File is a striped file. Files are laid out starting at a deterministic
// first server derived from creation order, like PVFS distributing files.
type File struct {
	sys   *System
	name  string
	first int // first server for offset 0

	// reqNames caches the per-server request-name strings, keyed by the
	// (app, direction) that last used each server, so the steady-state
	// transfer path formats no strings. The cache survives System.Reset.
	reqNames []reqName
}

type reqName struct {
	app, dir, name string
}

// Create creates (or truncates) a striped file. Re-creating a name returns
// the cached File object with its layout recomputed from the current
// creation order — indistinguishable from a fresh file, but reusable across
// runs without reallocation.
func (s *System) Create(name string) *File {
	f := s.files[name]
	if f == nil {
		f = &File{sys: s, name: name, reqNames: make([]reqName, s.cfg.Servers)}
		s.files[name] = f
	}
	f.first = s.nfiles % s.cfg.Servers
	s.nfiles++
	return f
}

// reqName returns the cached request name for server i, app and direction,
// formatting (and caching) it only on a miss.
func (f *File) reqName(i int, app, dir string) string {
	rn := &f.reqNames[i]
	if rn.name == "" || rn.app != app || rn.dir != dir {
		rn.app, rn.dir = app, dir
		rn.name = fmt.Sprintf("%s@%s[%d]%s", app, f.name, i, dir)
	}
	return rn.name
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Request describes one application-level write against the file system.
// The simulator aggregates the per-process requests of one application round
// into a single Request; Weight carries the number of underlying client
// streams so that servers share bandwidth proportionally to the real
// request pressure, and RateCap models the writers' total injection limit.
type Request struct {
	App     string  // application identity (used by Exclusive scheduling)
	Offset  int64   // byte offset in the file
	Length  int64   // byte count
	Weight  float64 // concurrent client streams this request represents
	RateCap float64 // total injection bandwidth cap, 0 = unlimited

	// ClientLink is the issuing application's NIC link; required when the
	// file system is deployed with an explicit fabric, ignored otherwise.
	ClientLink *fabric.Link
}

// Write performs the request synchronously from process p, blocking until
// every server involved has absorbed its share. It returns the elapsed
// virtual time.
func (f *File) Write(p *sim.Proc, req Request) float64 {
	return f.transfer(p, req, "w")
}

// Read performs a read request synchronously from process p. Reads are
// serviced by the same per-server resources as writes — on a storage server
// the disk heads and the NICs are shared between directions, which is why
// read traffic from one application interferes with another's writes. With
// a cache-enabled store, reads of recently-written data are serviced at
// cache speed, like the writes that produced them.
func (f *File) Read(p *sim.Proc, req Request) float64 {
	return f.transfer(p, req, "r")
}

func (f *File) transfer(p *sim.Proc, req Request, dir string) float64 {
	start := p.Now()
	if req.Length <= 0 {
		return 0
	}
	if req.Weight <= 0 {
		req.Weight = 1
	}
	sys := f.sys
	// The striping scratch is safe to share system-wide: between filling it
	// and the last submit below, the process never parks, and submit paths
	// only enqueue completions (they never re-enter transfer).
	per := PerServerBytesInto(sys.perScratch, req.Offset, req.Length, sys.cfg.StripeBytes, sys.cfg.Servers, f.first)
	touched := 0
	for _, b := range per {
		if b > 0 {
			touched++
		}
	}
	wg := sys.getWG()
	perWeight := req.Weight / float64(touched)
	var perCap float64
	if req.RateCap > 0 {
		perCap = req.RateCap / float64(touched)
	}
	// One fill for the whole stripe, not one per touched server.
	fb := sys.cfg.Fabric
	if fb != nil {
		fb.Hold()
	}
	for i, b := range per {
		if b == 0 {
			continue
		}
		wg.Add(1)
		r := sys.getReq()
		r.sv = sys.servers[i]
		r.app = req.App
		r.name = f.reqName(i, req.App, dir)
		r.bytes = float64(b)
		r.weight = perWeight
		r.cap = perCap
		r.client = req.ClientLink
		r.wg = wg
		r.sv.submit(r)
	}
	if fb != nil {
		fb.Release()
	}
	wg.Wait(p)
	sys.putWG(wg)
	return p.Now() - start
}

// Server is one storage server.
type Server struct {
	sys   *System
	id    int
	cfg   Config
	store *disk.Store
	link  *fabric.Link // non-nil in fabric mode

	// linkScratch backs the (at most two-element) path slice handed to
	// fabric.Start, which copies it; reused across requests.
	linkScratch [2]*fabric.Link

	// FIFO / Exclusive queueing state.
	queue   []*serverReq
	current *serverReq // FIFO: in-service request
	curApp  string     // Exclusive: app being serviced
	inFlite int        // Exclusive: live jobs of curApp
}

// serverReq is one per-server share of an application request. Requests are
// pooled on the System; completeFn is the completion closure bound once at
// allocation so completions never allocate.
type serverReq struct {
	sv         *Server
	app        string
	name       string
	bytes      float64
	weight     float64
	cap        float64
	client     *fabric.Link
	wg         *sim.WaitGroup
	completeFn func()
}

// complete notifies the issuing transfer, advances the server's queueing
// policy and returns the request to the pool.
func (r *serverReq) complete() {
	sv := r.sv
	if r.wg != nil {
		r.wg.Done()
	}
	sv.finished(r)
	sv.sys.putReq(r)
}

func newServer(sys *System, eng *sim.Engine, id int, cfg Config) *Server {
	sv := &Server{
		sys: sys,
		id:  id,
		cfg: cfg,
		store: disk.New(eng, fmt.Sprintf("srv%d", id), disk.Params{
			DiskBW:     cfg.ServerBW,
			CacheBW:    cfg.CacheBW,
			CacheBytes: cfg.CacheBytes,
		}),
	}
	if cfg.Fabric != nil {
		sv.link = cfg.Fabric.NewLink(fmt.Sprintf("srv%d", id), cfg.ServerBW)
	}
	return sv
}

// Link returns the server's fabric link (nil without an explicit fabric).
func (sv *Server) Link() *fabric.Link { return sv.link }

// Store exposes the server's storage target (for tests and metrics).
func (sv *Server) Store() *disk.Store { return sv.store }

// ID returns the server index.
func (sv *Server) ID() int { return sv.id }

func (sv *Server) submit(r *serverReq) {
	switch sv.cfg.Policy {
	case Share:
		sv.start(r)
	case FIFO:
		sv.queue = append(sv.queue, r)
		sv.pumpFIFO()
	case Exclusive:
		sv.queue = append(sv.queue, r)
		sv.pumpExclusive()
	default:
		panic("pfs: unknown scheduling policy")
	}
}

// start launches the request on the store (or, in fabric mode, as a flow
// crossing the client NIC and the server link).
func (sv *Server) start(r *serverReq) {
	if sv.cfg.Fabric != nil {
		sv.linkScratch[0] = sv.link
		links := sv.linkScratch[:1]
		if r.client != nil {
			links = append(links, r.client)
		}
		sv.cfg.Fabric.Start(r.name, r.bytes, r.weight, links, r.completeFn)
		return
	}
	sv.store.Resource().Submit(r.name, r.bytes, r.weight, r.cap, r.completeFn)
}

func (sv *Server) finished(r *serverReq) {
	switch sv.cfg.Policy {
	case FIFO:
		if sv.current == r {
			sv.current = nil
		}
		sv.pumpFIFO()
	case Exclusive:
		sv.inFlite--
		sv.pumpExclusive()
	}
}

func (sv *Server) pumpFIFO() {
	if sv.current != nil || len(sv.queue) == 0 {
		return
	}
	// Pop by copy-down so the queue keeps one stable backing array.
	r := sv.queue[0]
	copy(sv.queue, sv.queue[1:])
	sv.queue[len(sv.queue)-1] = nil
	sv.queue = sv.queue[:len(sv.queue)-1]
	sv.current = r
	sv.start(r)
}

func (sv *Server) pumpExclusive() {
	if sv.inFlite == 0 {
		sv.curApp = ""
	}
	if len(sv.queue) == 0 {
		return
	}
	if sv.curApp == "" {
		sv.curApp = sv.queue[0].app
	}
	// Admit every queued request of the active application, compacting the
	// rest in place (start never re-enters the pump synchronously:
	// completions arrive via posted callbacks).
	keep := sv.queue[:0]
	for _, r := range sv.queue {
		if r.app == sv.curApp {
			sv.inFlite++
			sv.start(r)
		} else {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(sv.queue); i++ {
		sv.queue[i] = nil
	}
	sv.queue = keep
}
