package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/params"
	"github.com/ugf-sim/ugf/internal/spec"
)

// Register mounts the sweep service's job API onto mux — the same mux the
// -debugaddr server already serves expvar and pprof from, so one listener
// carries both observability and jobs.
//
//	POST /v1/sweeps               submit a spec grid            → SubmitResponse
//	GET  /v1/sweeps/{id}          progress/ETA                  → SweepStatus
//	GET  /v1/sweeps/{id}/results  streaming result feed (JSONL) → ResultEvent per line
//	GET  /v1/runs/{fp}            cached run by fingerprint     → runner.Record
//	GET  /v1/registry             protocol/adversary schemas    → registryResponse
//	POST /v1/leases               acquire a run (long poll)     → Lease | 204
//	POST /v1/leases/{id}          complete a leased run         ← CompleteRequest
//	GET  /v1/counters             coordinator lifetime counters → Counters
//
// Validation failures are structured: a 400 whose body is
// {"error": {"field", "param", "msg"}} straight from the registries'
// schema checks, never a bare 500.
func Register(mux *http.ServeMux, c *Coordinator) {
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, &spec.Error{Msg: "malformed request body: " + err.Error()})
			return
		}
		resp, err := c.Submit(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Status(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, &spec.Error{Msg: fmt.Sprintf("unknown sweep %q", r.PathValue("id"))})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		from := 0
		if q := r.URL.Query().Get("from"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, &spec.Error{Field: "from", Msg: "want a non-negative integer"})
				return
			}
			from = n
		}
		id := r.PathValue("id")
		if _, ok := c.Status(id); !ok {
			writeError(w, http.StatusNotFound, &spec.Error{Msg: fmt.Sprintf("unknown sweep %q", id)})
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		c.Stream(r.Context(), id, from, func(ev ResultEvent) error {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			// Flush per event so clients see results as they land, not
			// when the chunk buffer happens to fill.
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	})
	mux.HandleFunc("GET /v1/runs/{fp}", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := c.Run(r.PathValue("fp"))
		if !ok {
			writeError(w, http.StatusNotFound, &spec.Error{Msg: fmt.Sprintf("no cached run %q", r.PathValue("fp"))})
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	mux.HandleFunc("GET /v1/registry", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, registrySnapshot())
	})
	mux.HandleFunc("POST /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		lease, err := c.Acquire(r.Context())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if lease == nil {
			w.WriteHeader(http.StatusNoContent) // idle long poll: come back
			return
		}
		writeJSON(w, http.StatusOK, lease)
	})
	mux.HandleFunc("POST /v1/leases/{id}", func(w http.ResponseWriter, r *http.Request) {
		var res CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			writeError(w, http.StatusBadRequest, &spec.Error{Msg: "malformed request body: " + err.Error()})
			return
		}
		if err := c.Complete(r.PathValue("id"), res); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/counters", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Counters())
	})
}

// NewServer returns a standalone handler serving only the job API — what
// tests mount on httptest and ugfbench -serve mounts when no -debugaddr
// mux exists yet.
func NewServer(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	Register(mux, c)
	return mux
}

// errorBody is the wire form of every non-200: a structured spec error
// under "error".
type errorBody struct {
	Error spec.Error `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	var body errorBody
	var se *spec.Error
	if errors.As(err, &se) {
		body.Error = *se
	} else {
		var pe *params.Error
		if errors.As(err, &pe) {
			body.Error = spec.Error{Param: pe.Param, Msg: pe.Msg}
		} else {
			body.Error = spec.Error{Msg: err.Error()}
		}
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// registryEntry is one protocol or adversary in the registry listing.
type registryEntry struct {
	Name   string          `json:"name"`
	Params []params.Schema `json:"params,omitempty"`
}

type registryResponse struct {
	SpecVersion int             `json:"spec_version"`
	Protocols   []registryEntry `json:"protocols"`
	Adversaries []registryEntry `json:"adversaries"`
}

// registrySnapshot lists every registered protocol and adversary with its
// parameter schemas — the data a client needs to construct valid specs
// without guessing.
func registrySnapshot() registryResponse {
	resp := registryResponse{SpecVersion: spec.Version}
	for _, e := range gossip.Entries() {
		resp.Protocols = append(resp.Protocols, registryEntry{Name: e.Name, Params: e.Params})
	}
	for _, e := range adversary.Entries() {
		resp.Adversaries = append(resp.Adversaries, registryEntry{Name: e.Name, Params: e.Params})
	}
	return resp
}
