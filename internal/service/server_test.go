package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/genmat"
	"repro/internal/localmm"
	"repro/internal/spmat"
)

// startServer runs a service behind httptest and returns a client on it.
func startServer(t *testing.T, cfg Config) (*Client, *Service) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return &Client{Base: srv.URL, HTTP: srv.Client()}, s
}

// The full client/server loop: load (wire, generator, mtx), plan, multiply
// with an exact result, stats, matrices.
func TestServerEndToEnd(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 21, Weighted: true})
	cl, s := startServer(t, testConfig(t, a))

	// Wire-format load round-trips the fingerprint and is idempotent.
	lr, err := cl.Load("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Fingerprint.ContentEqual(spmat.FingerprintOf(a)) {
		t.Fatalf("fingerprint mismatch over the wire")
	}
	if lr.AlreadyLoaded {
		t.Fatalf("first load reported already_loaded")
	}
	if lr, err = cl.Load("a", a); err != nil || !lr.AlreadyLoaded {
		t.Fatalf("idempotent reload: already=%v err=%v", lr.AlreadyLoaded, err)
	}

	// Server-side generation with identical parameters lands on the same
	// fingerprint as local generation.
	gen, err := cl.LoadGenerated("gen", GeneratorSpec{Kind: "rmat", Scale: 6, EdgeFactor: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	local := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 21, Weighted: true})
	if gen.Fingerprint.Hash != spmat.FingerprintOf(local).Hash {
		t.Fatalf("server-side generator is not deterministic vs local")
	}

	// Matrix Market text load.
	var mm bytes.Buffer
	if err := spmat.WriteMatrixMarket(&mm, genmat.ER(16, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := cl.do("POST", "/load", LoadRequest{Name: "mtx", Mtx: mm.String()}, new(LoadResponse)); err != nil {
		t.Fatal(err)
	}

	// Plan, then multiply: the multiply reuses the plan (cache hit).
	pr, err := cl.Plan("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if pr.CacheHit {
		t.Fatalf("first plan must miss")
	}
	resp, c, err := cl.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Plan.CacheHit {
		t.Fatalf("multiply after plan must hit the cache")
	}
	want := oneShot(t, a, a, s.cfg)
	if !bytes.Equal(c.Serialize(), want.Serialize()) {
		t.Fatalf("HTTP result is not bit-identical to the one-shot run")
	}
	if resp.NNZ != want.NNZ() {
		t.Fatalf("response nnz %d, want %d", resp.NNZ, want.NNZ())
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Probes != 1 || st.Multiplies != 1 {
		t.Fatalf("stats: probes=%d multiplies=%d", st.Probes, st.Multiplies)
	}
	mats, err := cl.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 3 {
		t.Fatalf("want 3 resident matrices, got %d", len(mats))
	}
}

// MultiplyMatrices (the apps' client path) must reuse resident slots across
// calls: the second identical product adds no probe work.
func TestClientMultiplyMatrices(t *testing.T) {
	a := genmat.ER(64, 6, 9)
	cl, s := startServer(t, testConfig(t, a))
	c1, err := cl.MultiplyMatrices(a, a, "plus-times")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.MultiplyMatrices(a, a, "plus-times")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Serialize(), c2.Serialize()) {
		t.Fatalf("repeat product differs")
	}
	if st := s.Stats(); st.Probes != 1 || st.Matrices != 1 {
		t.Fatalf("stats after repeat: probes=%d matrices=%d", st.Probes, st.Matrices)
	}
}

// Error paths map to the documented status codes.
func TestServerErrorCodes(t *testing.T) {
	a := genmat.ER(32, 4, 4)
	cl, _ := startServer(t, testConfig(t, a))
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}

	check := func(err error, status int, code string) {
		t.Helper()
		ae, ok := err.(*apiError)
		if !ok {
			t.Fatalf("want *apiError, got %v", err)
		}
		if ae.Status != status || ae.Code != code {
			t.Fatalf("want %d/%s, got %d/%s (%s)", status, code, ae.Status, ae.Code, ae.Message)
		}
	}

	// 404: operand not resident.
	_, err := cl.Plan("a", "missing")
	check(err, http.StatusNotFound, "not_found")

	// 409: name taken by different content.
	_, err = cl.Load("a", genmat.ER(32, 4, 5))
	check(err, http.StatusConflict, "conflict")

	// 422: dimension mismatch.
	if _, err := cl.Load("wide", genmat.Hypersparse(32, 64, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load("tall", genmat.Hypersparse(16, 8, 2, 1)); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Plan("wide", "tall")
	check(err, http.StatusUnprocessableEntity, "unprocessable")

	// 400: bad semiring, bad generator, bad JSON, bad load routes.
	_, _, err = cl.Multiply(MultiplyRequest{A: "a", B: "a", Semiring: "nope"})
	check(err, http.StatusBadRequest, "bad_request")
	_, err = cl.LoadGenerated("g", GeneratorSpec{Kind: "nope"})
	check(err, http.StatusBadRequest, "bad_request")
	err = cl.do("POST", "/load", LoadRequest{Name: "two", Mtx: "x", Generator: &GeneratorSpec{Kind: "er", N: 8}}, new(LoadResponse))
	check(err, http.StatusBadRequest, "bad_request")

	resp, err := cl.http().Post(cl.Base+"/multiply", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: want 400, got %d", resp.StatusCode)
	}
}

// sameBits fails unless got and want are the same matrix down to the bit
// pattern of every value (NaN payloads and the sign of zero included) and
// the sorted flag.
func sameBits(t *testing.T, what string, got, want *spmat.CSC) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.SortedCols != want.SortedCols {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	if len(got.ColPtr) != len(want.ColPtr) || len(got.RowIdx) != len(want.RowIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: array lengths differ: got %v, want %v", what, got, want)
	}
	for i := range want.ColPtr {
		if got.ColPtr[i] != want.ColPtr[i] {
			t.Fatalf("%s: column pointer %d is %d, want %d", what, i, got.ColPtr[i], want.ColPtr[i])
		}
	}
	for i := range want.RowIdx {
		if got.RowIdx[i] != want.RowIdx[i] {
			t.Fatalf("%s: row index %d is %d, want %d", what, i, got.RowIdx[i], want.RowIdx[i])
		}
		if g, w := math.Float64bits(got.Val[i]), math.Float64bits(want.Val[i]); g != w {
			t.Fatalf("%s: value %d has bits %#x, want %#x", what, i, g, w)
		}
	}
	if !spmat.FingerprintOf(got).ContentEqual(spmat.FingerprintOf(want)) {
		t.Fatalf("%s: fingerprints differ", what)
	}
}

// Matrices cross the daemon boundary as their wire bytes, so upload →
// multiply → download must keep every bit: what becomes resident is the
// client's matrix, and what comes back is what the same service computes
// in process.
func TestBinaryRoundTripBitIdentical(t *testing.T) {
	odd := genmat.ER(48, 5, 3)
	bits := []uint64{
		0x7ff8000000000123,                     // quiet NaN with a payload
		0xfff800000000beef,                     // negative quiet NaN, another payload
		0x7ff0000000000001,                     // signalling NaN
		math.Float64bits(math.Copysign(0, -1)), // -0.0
		math.Float64bits(math.Inf(-1)),
		1, // smallest subnormal
	}
	for i := range odd.Val {
		if i%2 == 0 {
			odd.Val[i] = math.Float64frombits(bits[(i/2)%len(bits)])
		}
	}
	dense := genmat.ER(48, 5, 4)
	hyper := genmat.Hypersparse(64, 700, 2, 9)
	unsorted := genmat.ER(48, 5, 5)
	for j := int32(0); j < unsorted.Cols; j++ {
		for x, y := unsorted.ColPtr[j], unsorted.ColPtr[j+1]-1; x < y; x, y = x+1, y-1 {
			unsorted.RowIdx[x], unsorted.RowIdx[y] = unsorted.RowIdx[y], unsorted.RowIdx[x]
			unsorted.Val[x], unsorted.Val[y] = unsorted.Val[y], unsorted.Val[x]
		}
	}
	unsorted.SortedCols = false
	if dense.Serialize()[16]&2 != 0 || hyper.Serialize()[16]&2 == 0 {
		t.Fatalf("fixtures do not cover both wire encodings")
	}
	cases := []struct {
		name string
		a, b *spmat.CSC
	}{
		{"nan-payloads-negative-zero", odd, odd},
		{"dense-encoded", dense, dense},
		{"hypersparse-encoded", hyper, spmat.Transpose(hyper)},
		{"unsorted-columns", unsorted, unsorted},
		{"empty-0x0", spmat.New(0, 0), spmat.New(0, 0)},
		{"n-by-0", dense, spmat.New(48, 0)},
	}
	cl, s := startServer(t, testConfig(t, genmat.ER(128, 8, 1)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for side, m := range map[string]*spmat.CSC{"a": tc.a, "b": tc.b} {
				lr, err := cl.Load(tc.name+"/"+side, m)
				if err != nil {
					t.Fatal(err)
				}
				if !lr.Fingerprint.ContentEqual(spmat.FingerprintOf(m)) {
					t.Fatalf("operand %s: fingerprint changed over the wire", side)
				}
				res, err := s.reg.get(tc.name + "/" + side)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "resident "+side, res.mat, m)
			}
			req := MultiplyRequest{A: tc.name + "/a", B: tc.name + "/b", ReturnResult: true}
			want, err := s.Multiply(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, c, err := cl.Multiply(req)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "downloaded product", c, product(t, want))
			if resp.NNZ != want.NNZ || resp.Rows != want.Rows || resp.Cols != want.Cols {
				t.Fatalf("response says %dx%d nnz=%d, job gave %dx%d nnz=%d", resp.Rows, resp.Cols, resp.NNZ, want.Rows, want.Cols, want.NNZ)
			}

			// On the wire: the document line, then exactly the assembled
			// product's encoding, under a Content-Length that says so.
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := cl.http().Post(cl.Base+"/multiply", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(raw.Body)
			raw.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if raw.ContentLength != int64(len(got)) {
				t.Fatalf("Content-Length %d for a %d-byte body", raw.ContentLength, len(got))
			}
			if _, wire, ok := bytes.Cut(got, []byte{'\n'}); !ok || !bytes.Equal(wire, product(t, want).Serialize()) {
				t.Fatalf("the %d bytes after the document are not the assembled product's encoding", len(wire))
			}

			// The trace rides in the document line, ahead of the matrix.
			req.Trace = true
			resp, c, err = cl.Multiply(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Trace) == 0 || !json.Valid(resp.Trace) {
				t.Fatalf("return_result with trace: trace missing or malformed (%d bytes)", len(resp.Trace))
			}
			sameBits(t, "downloaded product beside a trace", c, product(t, want))
		})
	}
}

// postRaw sends one request body and returns the status, the Content-Type
// and the body of the answer.
func postRaw(t *testing.T, cl *Client, path, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", cl.Base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

// wantEnvelope fails unless the answer is the JSON error envelope with the
// given status and code; it returns the message.
func wantEnvelope(t *testing.T, what string, status int, contentType string, body []byte, wantStatus int, wantCode string) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || contentType != "application/json" {
		t.Fatalf("%s: answer is not the JSON envelope (%s): %q", what, contentType, body)
	}
	if status != wantStatus || eb.Error.Code != wantCode || eb.Error.Message == "" {
		t.Fatalf("%s: got %d/%s (%s), want %d/%s", what, status, eb.Error.Code, eb.Error.Message, wantStatus, wantCode)
	}
	return eb.Error.Message
}

// A /multiply that does not return the product answers the JSON document it
// always has — same keys, same order, nothing after it.
func TestMultiplyWithoutResultIsPlainJSON(t *testing.T) {
	a := genmat.ER(32, 4, 4)
	cl, _ := startServer(t, testConfig(t, a))
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	status, ct, body := postRaw(t, cl, "/multiply", "application/json", []byte(`{"a":"a","b":"a"}`))
	if status != http.StatusOK || ct != "application/json" {
		t.Fatalf("got %d %s: %s", status, ct, body)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var doc map[string]json.RawMessage
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if dec.More() {
		t.Fatalf("bytes follow the JSON document")
	}
	var keys []string
	kd := json.NewDecoder(bytes.NewReader(body))
	for depth := 0; ; {
		tok, err := kd.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			if depth == 1 {
				keys = append(keys, v)
				var skip json.RawMessage
				if err := kd.Decode(&skip); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := "rows cols nnz plan batches peak_mem_bytes_per_rank model_seconds comm_seconds compute_seconds queued queue_seconds engine_s busy_cores job_id"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("document keys:\n got %s\nwant %s", got, want)
	}
}

// hostileHeader is a complete, valid 21-byte wire matrix: 1 row, cols empty
// columns, hypersparse encoding with no occupied column. Its CSC form needs
// 8·(cols+1) bytes of column pointers.
func hostileHeader(cols int32) []byte {
	buf := make([]byte, 21)
	binary.LittleEndian.PutUint32(buf[0:], 1)
	binary.LittleEndian.PutUint32(buf[4:], uint32(cols))
	buf[16] = 3 // sorted, hypersparse encoding; nnz and the column count stay 0
	return buf
}

// allocatedBy returns the bytes the process allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Every failure on the two endpoints that carry matrix bytes is still the
// JSON envelope, and a body that is not declared application/octet-stream is
// still read as JSON.
func TestBinaryEndpointErrors(t *testing.T) {
	a := genmat.ER(32, 4, 4)
	cl, s := startServer(t, testConfig(t, a))
	wire := a.Serialize()
	const bin = "application/octet-stream"

	st, ct, body := postRaw(t, cl, "/load", bin, wire)
	wantEnvelope(t, "no name", st, ct, body, http.StatusBadRequest, "bad_request")
	st, ct, body = postRaw(t, cl, "/load?name=t", bin, wire[:len(wire)-3])
	wantEnvelope(t, "truncated matrix", st, ct, body, http.StatusBadRequest, "bad_request")
	st, ct, body = postRaw(t, cl, "/load?name=t", bin, wire[:9])
	wantEnvelope(t, "truncated header", st, ct, body, http.StatusBadRequest, "bad_request")
	st, ct, body = postRaw(t, cl, "/load?name=t", bin, append(bytes.Clone(wire), 0, 0))
	wantEnvelope(t, "bytes after the matrix", st, ct, body, http.StatusBadRequest, "bad_request")
	st, ct, body = postRaw(t, cl, "/load?name=t", bin, nil)
	wantEnvelope(t, "empty body", st, ct, body, http.StatusBadRequest, "bad_request")
	if s.reg.Len() != 0 {
		t.Fatalf("a refused load left %d matrices resident", s.reg.Len())
	}

	// The old carrier is refused with a pointer to the new one.
	st, ct, body = postRaw(t, cl, "/load", "application/json", []byte(`{"name":"old","wire":"AAAA"}`))
	if msg := wantEnvelope(t, "legacy wire field", st, ct, body, http.StatusBadRequest, "bad_request"); !strings.Contains(msg, bin) || !strings.Contains(msg, "/load?name=") {
		t.Fatalf("legacy wire field: message does not name the binary route: %s", msg)
	}

	// Anything but application/octet-stream is JSON: what `curl -d` sends by
	// default, no Content-Type at all, and a parameterised binary type.
	gen := []byte(`{"name":"g","generator":{"kind":"er","n":16,"seed":1}}`)
	for _, contentType := range []string{"application/x-www-form-urlencoded", "", "text/plain", "application/json; charset=utf-8"} {
		if st, _, body := postRaw(t, cl, "/load", contentType, gen); st != http.StatusOK {
			t.Fatalf("JSON body sent as %q: %d %s", contentType, st, body)
		}
	}
	if st, _, body := postRaw(t, cl, "/load?name=p", bin+"; x=y", wire); st != http.StatusOK {
		t.Fatalf("parameterised octet-stream: %d %s", st, body)
	}

	// /multiply with return_result fails as JSON too, never as a half-written
	// binary response.
	st, ct, body = postRaw(t, cl, "/multiply", "application/json", []byte(`{"a":"g","b":"missing","return_result":true}`))
	wantEnvelope(t, "missing operand", st, ct, body, http.StatusNotFound, "not_found")
	st, ct, body = postRaw(t, cl, "/multiply", "application/json", []byte(`{"a":"g","b":"p","return_result":true}`))
	wantEnvelope(t, "dimension mismatch", st, ct, body, http.StatusUnprocessableEntity, "unprocessable")
}

// A body cannot make the daemon allocate more than the operator's budget by
// what it claims: neither a 21-byte matrix with 2³¹−1 empty columns nor a
// Content-Length of 1 TiB. Both are refused with typed errors and almost no
// allocation, and the daemon serves the next job exactly as a fresh one does.
func TestHostileLoadIsBoundedAndHarmless(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 5, Weighted: true})
	cfg := testConfig(t, a)
	cl, s := startServer(t, cfg)

	var st int
	var ct string
	var body []byte
	grew := allocatedBy(func() {
		st, ct, body = postRaw(t, cl, "/load?name=wide", "application/octet-stream", hostileHeader(math.MaxInt32))
	})
	wantEnvelope(t, "21-byte matrix", st, ct, body, http.StatusRequestEntityTooLarge, "too_large")
	if grew >= 1<<20 {
		t.Fatalf("21-byte matrix: the process allocated %d bytes refusing it", grew)
	}

	// The lying Content-Length, written by hand: http.Client would not send it.
	lie := func(base string, claim int64) (*http.Response, uint64) {
		var resp *http.Response
		grew := allocatedBy(func() {
			conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST /load?name=liar HTTP/1.1\r\nHost: spgemmd\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n0123456789", claim)
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			if resp, err = http.ReadResponse(bufio.NewReader(conn), nil); err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		})
		return resp, grew
	}
	// Over the budget the claim is refused unread. Within it, or with no
	// budget at all, nothing is sized by it beyond the first read: the body
	// ends after ten bytes and that is the error.
	roomy, _ := startServer(t, Config{P: 4, MemBytes: 1 << 32})
	unbudgeted, _ := startServer(t, Config{P: 4})

	// A daemon without a budget has a cap of its own on what one matrix may
	// inflate to, and the Matrix Market route — whose reader builds the CSC
	// form, 8 bytes a declared column — is held to the same bound as the
	// binary one, budget or cap.
	wideMtx, err := json.Marshal(LoadRequest{Name: "wide", Mtx: "%%MatrixMarket matrix coordinate real general\n1 2147483647 0\n"})
	if err != nil {
		t.Fatal(err)
	}
	type hostile struct {
		what        string
		to          *Client
		contentType string
		payload     []byte
	}
	cases := []hostile{
		{"21-byte matrix, no budget", unbudgeted, "application/octet-stream", hostileHeader(math.MaxInt32)},
		{"wide mtx, no budget", unbudgeted, "application/json", wideMtx},
		{"wide mtx, budgeted", cl, "application/json", wideMtx},
	}
	// The generator route is sized by the spec's own fields, a few dozen bytes
	// of JSON: it is priced from them before anything is generated.
	for what, spec := range map[string]string{
		"rmat scale 40":           `{"kind":"rmat","scale":40}`,
		"rmat scale 2^62":         `{"kind":"rmat","scale":4611686018427387904}`,
		"rmat edge factor 2^62":   `{"kind":"rmat","scale":4,"edge_factor":4611686018427387904}`,
		"er n 2e9":                `{"kind":"er","n":2000000000}`,
		"hypersparse 2^31-1 cols": `{"kind":"hypersparse","n":16,"cols":2147483647}`,
		"tallskinny 2^31-1 cols":  `{"kind":"tallskinny","n":2147483647,"cols":2147483647,"fill":1}`,
	} {
		payload := []byte(`{"name":"wide","generator":` + spec + `}`)
		cases = append(cases,
			hostile{what + ", budgeted", cl, "application/json", payload},
			hostile{what + ", no budget", unbudgeted, "application/json", payload})
	}
	for _, c := range cases {
		grew := allocatedBy(func() {
			st, ct, body = postRaw(t, c.to, "/load?name=wide", c.contentType, c.payload)
		})
		wantEnvelope(t, c.what, st, ct, body, http.StatusRequestEntityTooLarge, "too_large")
		if grew >= 1<<20 {
			t.Fatalf("%s: the process allocated %d bytes refusing it", c.what, grew)
		}
	}

	for _, c := range []struct {
		what     string
		base     string
		claim    int64
		status   int
		wantCode string
	}{
		{"1 TiB claim, budgeted", cl.Base, 1 << 40, http.StatusRequestEntityTooLarge, "too_large"},
		{"4 GiB claim, 4 GiB budget", roomy.Base, 1 << 32, http.StatusBadRequest, "bad_request"},
		{"1 TiB claim, no budget", unbudgeted.Base, 1 << 40, http.StatusBadRequest, "bad_request"},
	} {
		resp, grew := lie(c.base, c.claim)
		wantEnvelope(t, c.what, resp.StatusCode, resp.Header.Get("Content-Type"), body, c.status, c.wantCode)
		if grew >= 1<<20 {
			t.Fatalf("%s: the process allocated %d bytes refusing it", c.what, grew)
		}
	}

	if s.reg.Len() != 0 {
		t.Fatalf("a refused load left %d matrices resident", s.reg.Len())
	}
	after, err := cl.MultiplyMatrices(a, a, "plus-times")
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := startServer(t, cfg)
	want, err := fresh.MultiplyMatrices(a, a, "plus-times")
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "job after the hostile loads", after, want)

	// Rows cost an upload nothing either — a 33-byte body can claim 2³¹−1 of
	// them and fits any budget — so planning the matrix must size nothing by
	// them. 2²⁴ here: a planner that did would show as 64 MB, not take the
	// host down.
	if _, err := fresh.Load("tall", spmat.New(1<<24, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Load("one", spmat.New(1, 1)); err != nil {
		t.Fatal(err)
	}
	grew = allocatedBy(func() { _, err = fresh.Plan("tall", "one") })
	if err != nil {
		t.Fatal(err)
	}
	if grew >= 1<<20 {
		t.Fatalf("planning a matrix of 2^24 empty rows allocated %d bytes", grew)
	}
}

// TestGeneratedLoadsArePricedNotRefused: the price a generator spec is given
// before it runs — columns exactly, entries never fewer than it makes — lets
// the benchmark's resident-warm operands, full size, through the budget that
// workload runs under, and the daemon holds what Generate returns.
func TestGeneratedLoadsArePricedNotRefused(t *testing.T) {
	specs := map[string]GeneratorSpec{
		"rmat":       {Kind: "rmat", Scale: 11, EdgeFactor: 8, Seed: 1},
		"er":         {Kind: "er", N: 2048, EdgeFactor: 8, Seed: 2},
		"hyper":      {Kind: "hypersparse", N: 16384, Cols: 16384, NnzPerCol: 2, Seed: 3},
		"defaults":   {Kind: "rmat", Scale: 6},
		"tallskinny": {Kind: "tallskinny", N: 4096, Cols: 16, Fill: 0.05, Seed: 4},
	}
	mats := map[string]*spmat.CSC{}
	for name, g := range specs {
		m, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		mats[name] = m
		cols, nnz, err := g.footprint()
		if err != nil {
			t.Fatal(err)
		}
		if cols != int64(m.Cols) || name != "tallskinny" && nnz < m.NNZ() || nnz > 4*m.NNZ() {
			t.Errorf("%s: priced at %d columns and %d entries, generated %d and %d", name, cols, nnz, m.Cols, m.NNZ())
		}
	}
	cl, s := startServer(t, Config{P: 16, MemBytes: 4 * 24 * localmm.Flops(mats["rmat"], mats["rmat"])})
	for name, g := range specs {
		if _, err := cl.LoadGenerated(name, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		held, err := s.reg.get(name)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, name, held.mat, mats[name])
	}
}

// MultiplyMatrices sends an operand that is both sides of the product once —
// by pointer or by content — and two distinct operands once each, under the
// names any other client derives from their fingerprints.
func TestClientShipsEachOperandOnce(t *testing.T) {
	a, b := genmat.ER(64, 6, 9), genmat.ER(64, 6, 10)
	cl, s := startServer(t, testConfig(t, a, b))
	loads := func() int64 { return s.Stats().Requests["load"] }

	for i, step := range []struct {
		a, b *spmat.CSC
		want int64
	}{{a, a, 1}, {a, a.Clone(), 2}, {a, b, 4}, {b, a, 6}} {
		if _, err := cl.MultiplyMatrices(step.a, step.b, "plus-times"); err != nil {
			t.Fatal(err)
		}
		if got := loads(); got != step.want {
			t.Fatalf("after product %d: %d load requests, want %d", i, got, step.want)
		}
	}
	if mats := s.reg.List(); len(mats) != 2 || mats[0].Name != "m-"+mats[0].Fingerprint.Hash[:16] || mats[1].Name != "m-"+mats[1].Fingerprint.Hash[:16] {
		t.Fatalf("resident names are not the fingerprint prefixes: %v", mats)
	}
}

// One Client is shared by goroutines (an app's MultiplyFunc may be called from
// several): racing uploads of one operand are harmless, the load is
// idempotent, and every product is the one-shot run's.
func TestClientConcurrentMultiplyMatrices(t *testing.T) {
	shared := genmat.ER(64, 6, 20)
	own := []*spmat.CSC{genmat.ER(64, 6, 21), genmat.ER(64, 6, 22), genmat.ER(64, 6, 23), genmat.ER(64, 6, 24)}
	cl, s := startServer(t, testConfig(t, shared))
	var wg sync.WaitGroup
	for _, m := range own {
		want := oneShot(t, m, shared, s.cfg).Serialize()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cl.MultiplyMatrices(m, shared, "plus-times")
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(c.Serialize(), want) {
				t.Errorf("concurrent product differs from the one-shot run")
			}
		}()
	}
	wg.Wait()
	if s.reg.Len() != 5 {
		t.Fatalf("%d matrices resident, want 5", s.reg.Len())
	}
}

// What crossing the daemon boundary costs in allocation, beyond the job
// itself: one upload, one multiply and one download over HTTP against the
// same job through Service.Multiply in process, each on a fresh service after
// one warm-up job. The matrix crosses as its bytes, so the difference is a
// small multiple of the bytes that crossed (serialize, receive, decode on each
// side) — base64 inside JSON cost about twice that. TotalAlloc is the whole
// process's, so a measurement in which the job's own variation swallows the
// boundary is taken again; one that never shows a boundary cost fails.
func TestServiceRoundTripBytesBudget(t *testing.T) {
	warm := genmat.RMAT(genmat.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 2, Weighted: true})
	for attempt := int64(0); attempt < 3; attempt++ {
		a := genmat.RMAT(genmat.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 3 + attempt, Weighted: true})
		cfg := testConfig(t, a, warm)

		inProc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		job := func(name string, m *spmat.CSC) *spmat.CSC {
			if _, _, err := inProc.Load(name, m); err != nil {
				t.Fatal(err)
			}
			res, err := inProc.Multiply(MultiplyRequest{A: name, B: name, ReturnResult: true})
			if err != nil {
				t.Fatal(err)
			}
			return product(t, res)
		}
		job("warm", warm)
		var want *spmat.CSC
		direct := allocatedBy(func() { want = job("a", a) })

		cl, _ := startServer(t, cfg)
		if _, err := cl.MultiplyMatrices(warm, warm, "plus-times"); err != nil {
			t.Fatal(err)
		}
		var got *spmat.CSC
		overHTTP := allocatedBy(func() {
			if got, err = cl.MultiplyMatrices(a, a, "plus-times"); err != nil {
				t.Fatal(err)
			}
		})
		sameBits(t, "product over HTTP", got, want)

		crossed := uint64(a.CommBytes() + want.CommBytes())
		if overHTTP <= direct {
			t.Logf("over HTTP %d bytes, in process %d: the job's own variation exceeds the boundary's cost, measuring again", overHTTP, direct)
			continue
		}
		extra := overHTTP - direct
		t.Logf("boundary cost %d bytes for %d bytes crossed (%.1fx); in-process job %d bytes", extra, crossed, float64(extra)/float64(crossed), direct)
		if extra > 6*crossed {
			t.Fatalf("crossing the daemon boundary allocated %d bytes for %d bytes of matrices (%.1fx, budget 6x)", extra, crossed, float64(extra)/float64(crossed))
		}
		return
	}
	t.Fatalf("no measurement showed what the boundary costs")
}

// A cold plan's wall time is counted in spgemmd_plan_seconds_total and shows
// as plan_s on its job's log line; a plan-cache hit adds nothing to the
// counter.
func TestColdPlanSecondsOnMetricsAndJobLine(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 6, EdgeFactor: 8, Seed: 3, Weighted: true})
	cfg := testConfig(t, a)
	var logs jobLog
	cfg.Logger = slog.New(slog.NewJSONHandler(&logs, nil))
	cl, _ := startServer(t, cfg)
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	const metric = "spgemmd_plan_seconds_total"
	if v, ok := scrapeMetrics(t, cl)[metric]; !ok || v != 0 {
		t.Fatalf("%s = %g (present %v) before any plan", metric, v, ok)
	}
	var after []float64
	for i := 0; i < 2; i++ {
		res, _, err := cl.Multiply(MultiplyRequest{A: "a", B: "a"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.CacheHit != (i == 1) {
			t.Fatalf("job %d: cache_hit %v", i, res.Plan.CacheHit)
		}
		after = append(after, scrapeMetrics(t, cl)[metric])
	}
	if after[0] <= 0 {
		t.Errorf("%s = %g after a cold plan", metric, after[0])
	}
	if after[1] != after[0] {
		t.Errorf("%s moved %g -> %g on a plan-cache hit", metric, after[0], after[1])
	}
	lines := logs.done(t)
	if len(lines) != 2 {
		t.Fatalf("%d `job done` lines for 2 jobs", len(lines))
	}
	for i, line := range lines {
		planS, ok := line["plan_s"].(float64)
		if !ok || planS < 0 {
			t.Fatalf("job %d logged plan_s %v", i, line["plan_s"])
		}
		// The job's plan_s encloses its cold plan.
		if i == 0 && planS < after[0] {
			t.Errorf("cold job logged plan_s %g, below the %g s its plan took", planS, after[0])
		}
	}
}
