package service

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// The JSON-over-HTTP surface. SERVICE.md is the wire-contract reference;
// handlers here stay thin: decode, call the Service method, encode.
//
// Every error response is the envelope {"error": {"code", "message"}} with
// the matching HTTP status:
//
//	bad_request   400  malformed JSON, missing fields, bad knob spellings
//	not_found     404  operand name not resident
//	conflict      409  name already loaded with different content
//	unprocessable 422  loadable request that can't run (dimension mismatch,
//	                   no feasible plan under the budget)
//	internal      500  engine failure

// errorBody is the JSON error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = err.Error()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&body)
}

// classify maps a Service error onto (status, code) by its content; the
// Service layer returns fmt.Errorf errors, so classification is textual but
// exercised by tests.
func classify(err error) (int, string) {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "no matrix loaded"):
		return http.StatusNotFound, "not_found"
	case strings.Contains(msg, "already loaded with different content"):
		return http.StatusConflict, "conflict"
	case strings.Contains(msg, "dimension mismatch"), strings.Contains(msg, "no feasible configuration"):
		return http.StatusUnprocessableEntity, "unprocessable"
	case strings.Contains(msg, "unknown"), strings.Contains(msg, "must not be empty"):
		return http.StatusBadRequest, "bad_request"
	}
	return http.StatusInternalServerError, "internal"
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// GeneratorSpec asks the server to synthesize a workload instead of
// uploading one — the deterministic generators the experiments use, so a
// client can get paper-shaped traffic with a few JSON fields.
type GeneratorSpec struct {
	// Kind is rmat | er | hypersparse | tallskinny.
	Kind string `json:"kind"`
	// Scale gives n = 2^Scale vertices (rmat); N is the explicit dimension
	// (er, hypersparse, tallskinny rows).
	Scale int   `json:"scale,omitempty"`
	N     int32 `json:"n,omitempty"`
	// EdgeFactor is edges per vertex (rmat, er); NnzPerCol the per-column
	// count (hypersparse); Cols the column count (hypersparse, tallskinny);
	// Fill the dense fraction (tallskinny).
	EdgeFactor int     `json:"edge_factor,omitempty"`
	NnzPerCol  int     `json:"nnz_per_col,omitempty"`
	Cols       int32   `json:"cols,omitempty"`
	Fill       float64 `json:"fill,omitempty"`
	// Seed drives the deterministic stream.
	Seed int64 `json:"seed,omitempty"`
}

// Generate runs the named generator.
func (g GeneratorSpec) Generate() (*spmat.CSC, error) {
	switch g.Kind {
	case "rmat":
		if g.Scale <= 0 {
			return nil, fmt.Errorf("service: rmat generator needs scale > 0")
		}
		ef := g.EdgeFactor
		if ef <= 0 {
			ef = 8
		}
		return genmat.RMAT(genmat.RMATConfig{Scale: g.Scale, EdgeFactor: ef, Seed: g.Seed, Weighted: true}), nil
	case "er":
		if g.N <= 0 {
			return nil, fmt.Errorf("service: er generator needs n > 0")
		}
		ef := g.EdgeFactor
		if ef <= 0 {
			ef = 8
		}
		return genmat.ER(g.N, ef, g.Seed), nil
	case "hypersparse":
		if g.N <= 0 || g.Cols <= 0 {
			return nil, fmt.Errorf("service: hypersparse generator needs n and cols > 0")
		}
		npc := g.NnzPerCol
		if npc <= 0 {
			npc = 2
		}
		return genmat.Hypersparse(g.N, g.Cols, npc, g.Seed), nil
	case "tallskinny":
		if g.N <= 0 || g.Cols <= 0 {
			return nil, fmt.Errorf("service: tallskinny generator needs n and cols > 0")
		}
		fill := g.Fill
		if fill <= 0 {
			fill = 0.05
		}
		return genmat.TallSkinny(g.N, g.Cols, fill, g.Seed), nil
	}
	return nil, fmt.Errorf("service: unknown generator %q (want rmat, er, hypersparse, or tallskinny)", g.Kind)
}

// LoadRequest carries a matrix into the registry by exactly one of three
// routes: Wire (base64 of the engine's exact binary format — what Client
// sends), Mtx (Matrix Market text), or Generator.
type LoadRequest struct {
	Name      string         `json:"name"`
	Wire      string         `json:"wire,omitempty"`
	Mtx       string         `json:"mtx,omitempty"`
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// LoadResponse reports the resident matrix's identity.
type LoadResponse struct {
	Name          string            `json:"name"`
	Fingerprint   spmat.Fingerprint `json:"fingerprint"`
	AlreadyLoaded bool              `json:"already_loaded"`
}

// PlanRequest names the operand pair to plan.
type PlanRequest struct {
	A string `json:"a"`
	B string `json:"b"`
}

// MultiplyResponse is MultiplyResult on the wire; the output matrix, when
// requested, rides along base64-encoded in the engine's exact binary format
// so values survive bit-for-bit.
type MultiplyResponse struct {
	Rows                int32      `json:"rows"`
	Cols                int32      `json:"cols"`
	NNZ                 int64      `json:"nnz"`
	Plan                PlanResult `json:"plan"`
	Batches             int        `json:"batches"`
	PeakMemBytesPerRank int64      `json:"peak_mem_bytes_per_rank"`
	ModelSeconds        float64    `json:"model_seconds"`
	CommSeconds         float64    `json:"comm_seconds"`
	ComputeSeconds      float64    `json:"compute_seconds"`
	Queued              bool       `json:"queued"`
	QueueSeconds        float64    `json:"queue_seconds"`
	EngineSeconds       float64    `json:"engine_s"`
	BusyCores           float64    `json:"busy_cores"`
	JobID               int64      `json:"job_id"`
	Result              string     `json:"result,omitempty"`
	// Trace is the job's Chrome trace-event document, present when the
	// request asked for it (body field or ?trace=1).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// Handler returns the service's HTTP mux:
//
//	POST /load      LoadRequest      → LoadResponse
//	POST /plan      PlanRequest      → PlanResult
//	POST /multiply  MultiplyRequest  → MultiplyResponse (?trace=1 adds the trace)
//	GET  /stats                      → Stats
//	GET  /matrices                   → []MatrixInfo
//	GET  /metrics                    → Prometheus text exposition
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /load", func(w http.ResponseWriter, r *http.Request) {
		s.requests[epLoad].Add(1)
		var req LoadRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		m, err := decodeLoad(req)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		fp, already, err := s.Load(req.Name, m)
		if err != nil {
			st, code := classify(err)
			writeErr(w, st, code, err)
			return
		}
		writeJSON(w, LoadResponse{Name: req.Name, Fingerprint: fp, AlreadyLoaded: already})
	})
	mux.HandleFunc("POST /plan", func(w http.ResponseWriter, r *http.Request) {
		s.requests[epPlan].Add(1)
		var req PlanRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		res, err := s.Plan(req.A, req.B)
		if err != nil {
			st, code := classify(err)
			writeErr(w, st, code, err)
			return
		}
		writeJSON(w, res)
	})
	mux.HandleFunc("POST /multiply", func(w http.ResponseWriter, r *http.Request) {
		s.requests[epMultiply].Add(1)
		var req MultiplyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
			req.Trace = true
		}
		res, err := s.Multiply(req)
		if err != nil {
			st, code := classify(err)
			writeErr(w, st, code, err)
			return
		}
		resp := MultiplyResponse{
			Rows: res.Rows, Cols: res.Cols, NNZ: res.NNZ,
			Plan: res.Plan, Batches: res.Batches,
			PeakMemBytesPerRank: res.PeakMemBytesPerRank,
			ModelSeconds:        res.ModelSeconds,
			CommSeconds:         res.CommSeconds,
			ComputeSeconds:      res.ComputeSeconds,
			Queued:              res.Queued,
			QueueSeconds:        res.QueueSeconds,
			EngineSeconds:       res.EngineSeconds,
			BusyCores:           res.BusyCores,
			JobID:               res.JobID,
		}
		if res.C != nil {
			resp.Result = base64.StdEncoding.EncodeToString(res.C.Serialize())
		}
		if req.Trace && res.Trace != nil {
			if buf, err := res.Trace.TraceJSON(); err == nil {
				resp.Trace = buf
			}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.requests[epStats].Add(1)
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /matrices", func(w http.ResponseWriter, r *http.Request) {
		s.requests[epMatrices].Add(1)
		writeJSON(w, s.reg.List())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.requests[epMetrics].Add(1)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	return mux
}

// decodeLoad materializes the request's matrix from whichever route it used.
func decodeLoad(req LoadRequest) (*spmat.CSC, error) {
	n := 0
	if req.Wire != "" {
		n++
	}
	if req.Mtx != "" {
		n++
	}
	if req.Generator != nil {
		n++
	}
	if n != 1 {
		return nil, fmt.Errorf("service: /load needs exactly one of wire, mtx, or generator")
	}
	switch {
	case req.Wire != "":
		buf, err := base64.StdEncoding.DecodeString(req.Wire)
		if err != nil {
			return nil, fmt.Errorf("service: wire payload: %w", err)
		}
		return spmat.Deserialize(buf)
	case req.Mtx != "":
		return spmat.ReadMatrixMarket(strings.NewReader(req.Mtx))
	default:
		return req.Generator.Generate()
	}
}
