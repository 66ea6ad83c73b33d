package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
)

// Admin bundles everything calciomd's admin listener serves. All fields are
// optional; nil fields render sensible defaults so tests can serve a bare
// registry.
type Admin struct {
	// Registry backs /metrics: its stored series and its collectors'
	// scrape-time families, in one rendering.
	Registry *Registry
	// Health returns the current health word: "serving", "degraded",
	// "overloaded", "draining" or "closed". Backs /healthz (non-"serving"
	// answers 503 so load balancers can act on it).
	Health func() string
	// Status returns the object rendered as JSON on /statusz (the full
	// wire.Stats snapshot in calciomd).
	Status func() any
}

// Handler returns the admin mux: /metrics, /healthz, /statusz, and the
// net/http/pprof family under /debug/pprof/.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.metrics)
	mux.HandleFunc("/healthz", a.healthz)
	mux.HandleFunc("/statusz", a.statusz)
	// Register pprof explicitly: the side-effect import registers on
	// http.DefaultServeMux, which this handler deliberately does not use.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (a *Admin) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if a.Registry != nil {
		a.Registry.WriteTo(w)
	}
}

func (a *Admin) healthz(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if a.Health != nil {
		state = a.Health()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if state != "serving" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	io.WriteString(w, state+"\n")
}

func (a *Admin) statusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var status any
	if a.Status != nil {
		status = a.Status()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(status); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
