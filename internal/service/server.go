package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/spmat"
)

// The HTTP surface. SERVICE.md is the wire-contract reference; handlers here
// stay thin: decode, call the Service method, encode. Requests and responses
// are JSON except where a matrix crosses: an uploaded matrix is the body of
// POST /load?name=… and a returned product follows the JSON document of its
// /multiply response, both as the engine's own wire bytes
// (application/octet-stream) — never text inside the JSON.
//
// Every error response is the envelope {"error": {"code", "message"}} with
// the matching HTTP status:
//
//	bad_request   400  malformed JSON or matrix bytes, missing fields, bad
//	                   knob spellings
//	not_found     404  operand name not resident
//	conflict      409  name already loaded with different content
//	too_large     413  uploaded matrix (its body, or its in-memory form)
//	                   exceeds the daemon's memory budget
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

// withDefaults checks the fields the spec's kind requires and fills in the
// optional ones it left out.
func (g GeneratorSpec) withDefaults() (GeneratorSpec, error) {
	switch g.Kind {
	case "rmat":
		if g.Scale <= 0 {
			return g, fmt.Errorf("service: rmat generator needs scale > 0")
		}
	case "er":
		if g.N <= 0 {
			return g, fmt.Errorf("service: er generator needs n > 0")
		}
	case "hypersparse", "tallskinny":
		if g.N <= 0 || g.Cols <= 0 {
			return g, fmt.Errorf("service: %s generator needs n and cols > 0", g.Kind)
		}
	default:
		return g, fmt.Errorf("service: unknown generator %q (want rmat, er, hypersparse, or tallskinny)", g.Kind)
	}
	if g.EdgeFactor <= 0 {
		g.EdgeFactor = 8
	}
	if g.NnzPerCol <= 0 {
		g.NnzPerCol = 2
	}
	if g.Fill <= 0 {
		g.Fill = 0.05
	}
	return g, nil
}

// maxPricedSize is where footprint saturates: far past any budget, and small
// enough that checkResident's bytes-per-column and bytes-per-entry factors
// cannot overflow on it.
const maxPricedSize = 1 << 50

// footprint returns the column count and the expected entry count of the
// matrix the spec describes, from its fields alone — a 60-byte request can
// ask for 2⁴⁰ columns, so the load is priced before anything is generated.
// Both saturate at maxPricedSize.
func (g GeneratorSpec) footprint() (cols, nnz int64, err error) {
	if g, err = g.withDefaults(); err != nil {
		return 0, 0, err
	}
	perCol := float64(g.EdgeFactor)
	switch g.Kind {
	case "rmat":
		cols = 1 << min(g.Scale, 50)
	case "er":
		cols = int64(g.N)
	case "hypersparse":
		cols, perCol = int64(g.Cols), float64(g.NnzPerCol)
	case "tallskinny":
		cols, perCol = int64(g.Cols), g.Fill*float64(g.N)
	}
	return cols, int64(min(perCol*float64(cols), maxPricedSize)), nil
}

// Generate runs the named generator.
func (g GeneratorSpec) Generate() (*spmat.CSC, error) {
	g, err := g.withDefaults()
	if err != nil {
		return nil, err
	}
	switch g.Kind {
	case "rmat":
		return genmat.RMAT(genmat.RMATConfig{Scale: g.Scale, EdgeFactor: g.EdgeFactor, Seed: g.Seed, Weighted: true}), nil
	case "er":
		return genmat.ER(g.N, g.EdgeFactor, g.Seed), nil
	case "hypersparse":
		return genmat.Hypersparse(g.N, g.Cols, g.NnzPerCol, g.Seed), nil
	default:
		return genmat.TallSkinny(g.N, g.Cols, g.Fill, g.Seed), nil
	}
}

// LoadRequest is the JSON body of /load: it carries a matrix into the
// registry as Matrix Market text (Mtx) or as a Generator spec, exactly one of
// the two. A matrix in the engine's binary format does not travel in JSON: it
// is the whole body of POST /load?name=<name> with Content-Type
// application/octet-stream (what Client.Load sends).
type LoadRequest struct {
	Name      string         `json:"name"`
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

// MultiplyResponse is MultiplyResult on the wire. The output matrix, when
// requested, is not a field: the response is then application/octet-stream,
// this document on one newline-terminated line followed by the matrix in the
// engine's exact binary format, so values survive bit-for-bit.
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
	// Trace is the job's Chrome trace-event document, present when the
	// request asked for it (body field or ?trace=1).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// Handler returns the service's HTTP mux:
//
//	POST /load      LoadRequest, or matrix bytes with ?name=  → LoadResponse
//	POST /plan      PlanRequest      → PlanResult
//	POST /multiply  MultiplyRequest  → MultiplyResponse (?trace=1 adds the
//	                                   trace; return_result appends the matrix)
//	GET  /stats                      → Stats
//	GET  /matrices                   → []MatrixInfo
//	GET  /metrics                    → Prometheus text exposition
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /load", func(w http.ResponseWriter, r *http.Request) {
		s.requests[epLoad].Add(1)
		name, m, err := decodeLoad(w, r, s.cfg.MemBytes)
		if err != nil {
			if errors.Is(err, errOverBudget) {
				writeErr(w, http.StatusRequestEntityTooLarge, "too_large", err)
			} else {
				writeErr(w, http.StatusBadRequest, "bad_request", err)
			}
			return
		}
		fp, already, err := s.Load(name, m)
		if err != nil {
			st, code := classify(err)
			writeErr(w, st, code, err)
			return
		}
		writeJSON(w, LoadResponse{Name: name, Fingerprint: fp, AlreadyLoaded: already})
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
		// The response is written inside the job's admission reservation, so
		// a product streamed from the ranks' pieces stays charged until it is
		// out.
		if _, err := s.multiply(req, func(res *MultiplyResult) { s.writeMultiply(w, req, res) }); err != nil {
			st, code := classify(err)
			writeErr(w, st, code, err)
		}
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

// writeMultiply writes one successful job's /multiply response: the JSON
// document, and for a request that asked for the product, the document on its
// one line followed by the product's wire bytes.
func (s *Service) writeMultiply(w http.ResponseWriter, req MultiplyRequest, res *MultiplyResult) {
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
	if req.Trace && res.Trace != nil {
		if buf, err := res.Trace.TraceJSON(); err == nil {
			resp.Trace = buf
		}
	}
	if !req.ReturnResult {
		writeJSON(w, resp)
		return
	}
	// The document on its one line (json.Encoder ends it with the only
	// raw newline it writes), then the product's wire bytes, streamed
	// from the ranks' pieces under their exact length: the product is
	// never assembled or encoded whole on this side.
	start := time.Now()
	seg := segTables.Get().(*spmat.Segmented)
	defer func() {
		clear(seg.Segs) // an idle table keeps no view of a released chunk
		segTables.Put(seg)
	}()
	if err := core.ProductSegments(seg, res.ranks, res.Rows, res.Cols); err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err)
		return
	}
	var head bytes.Buffer
	_ = json.NewEncoder(&head).Encode(resp) // the same fields writeJSON encodes; a bytes.Buffer write cannot fail
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(int64(head.Len())+seg.CommBytes(), 10))
	if _, err := w.Write(head.Bytes()); err != nil {
		return // a client that went away is its own problem
	}
	n, _ := seg.WriteTo(w) // as above
	s.met.observeEncode(n, time.Since(start).Seconds())
}

// segTables holds the segment tables returned products are streamed from
// between responses, so a warm one refills a table instead of allocating it.
var segTables = sync.Pool{New: func() any { return new(spmat.Segmented) }}

// errOverBudget marks a /load refused because the matrix — its body, or the
// CSC form the registry would hold — exceeds the service's MemBytes, or that
// form exceeds maxResidentBytes on a service without a budget.
var errOverBudget = errors.New("matrix exceeds the memory budget")

// decodeLoad materializes the request's name and matrix from whichever route
// it used: the engine's wire bytes as an application/octet-stream body with
// the name in the query, or a JSON LoadRequest (any other Content-Type, so a
// bare `curl -d '{…}'` works). budget is the service's MemBytes, the bound the
// operator has given; with 0 a body is read whatever its length, and only the
// CSC form of what it describes is bounded (checkResident).
func decodeLoad(w http.ResponseWriter, r *http.Request, budget int64) (string, *spmat.CSC, error) {
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct != "application/octet-stream" {
		var req LoadRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return "", nil, err
		}
		var m *spmat.CSC
		var err error
		switch {
		case (req.Mtx != "") == (req.Generator != nil):
			err = fmt.Errorf("service: a JSON /load needs exactly one of mtx or generator; a matrix in the binary wire format is the application/octet-stream body of POST /load?name=<name>")
		case req.Mtx != "":
			// The reader builds the CSC form, 8 bytes a declared column
			// whatever the text's length.
			if err = checkResident(req.Name, int64(mtxCols(req.Mtx)), 0, budget); err == nil {
				m, err = spmat.ReadMatrixMarket(strings.NewReader(req.Mtx))
			}
		default:
			var cols, nnz int64
			if cols, nnz, err = req.Generator.footprint(); err == nil {
				if err = checkResident(req.Name, cols, nnz, budget); err == nil {
					m, err = req.Generator.Generate()
				}
			}
		}
		return req.Name, m, err
	}

	name := r.URL.Query().Get("name")
	if name == "" {
		return "", nil, fmt.Errorf("service: a binary /load needs the matrix name in the query: POST /load?name=<name>")
	}
	buf, err := readBody(w, r, budget)
	if err != nil {
		return "", nil, err
	}
	// Decode in the wire's own encoding first: that allocates no more than a
	// constant times the body, whereas the CSC form of a hypersparse-encoded
	// matrix is 8·(cols+1) bytes whatever the body's size — a 21-byte body can
	// claim 2³¹−1 empty columns. An operand that alone exceeds the aggregate
	// budget could not be multiplied under it anyway. The decode copies what
	// it reads, so the body's buffer goes back as soon as it returns.
	wm, err := spmat.DeserializeMatrix(buf.Bytes())
	putBody(buf)
	if err != nil {
		return "", nil, err
	}
	_, cols := wm.Dims()
	if err := checkResident(name, int64(cols), wm.NNZ(), budget); err != nil {
		return "", nil, err
	}
	return name, wm.ToCSC(), nil
}

// mtxCols returns the column count Matrix Market text declares: the second
// field of its size line, the first line after the banner that is neither
// blank nor a comment. Text without one reads as 0 columns and is left to the
// reader to refuse.
func mtxCols(text string) int32 {
	_, rest, _ := strings.Cut(text, "\n")
	for rest != "" {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if line = strings.TrimSpace(line); line == "" || line[0] == '%' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			break
		}
		cols, _ := strconv.ParseInt(f[1], 10, 32) // out of range parses to the nearest bound
		return int32(max(cols, 0))
	}
	return 0
}

// firstRead is the most a binary /load allocates before any of the body has
// arrived.
const firstRead = 256 << 10

// bodyBufs holds /load body buffers between requests. Only a buffer the
// firstRead rule would have made anyway goes back (putBody), so no
// budget-sized body sits idle in it.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= firstRead+bytes.MinRead {
		buf.Reset()
		bodyBufs.Put(buf)
	}
}

// readBody reads a binary /load body whole into a buffer from bodyBufs, which
// the caller gives back with putBody once it has read it. Content-Length is
// the sender's claim: one over the budget is refused unread, and no buffer is
// sized by it beyond firstRead — from there the buffer doubles only as bytes
// actually arrive, up to the budget when there is one.
func readBody(w http.ResponseWriter, r *http.Request, budget int64) (*bytes.Buffer, error) {
	body, claimed := io.Reader(r.Body), r.ContentLength
	if budget > 0 {
		if claimed > budget {
			return nil, fmt.Errorf("service: /load body of %d bytes, the memory budget is %d: %w", claimed, budget, errOverBudget)
		}
		body = http.MaxBytesReader(w, r.Body, budget)
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	if want := int(min(claimed, firstRead)) + bytes.MinRead; claimed > 0 && buf.Cap() < want {
		// An honest body up to firstRead is read without regrowing. A pooled
		// buffer too small for it is replaced by one of twice its size, or
		// the body's if that is more, never past what putBody keeps: bytes.
		// Buffer's own growth would double it and add the claim.
		buf = bytes.NewBuffer(make([]byte, 0, max(want, min(2*buf.Cap(), firstRead+bytes.MinRead))))
	}
	if _, err := buf.ReadFrom(body); err != nil {
		putBody(buf)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("service: /load body exceeds the %d-byte memory budget: %w", budget, errOverBudget)
		}
		return nil, fmt.Errorf("service: reading /load body: %w", err)
	}
	return buf, nil
}
