package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// roundTripFunc answers a client's requests itself, so a test can hand
// Client.Multiply any response body and Content-Length.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// productClient is a client whose every /multiply answer is the document
// line doc followed by wire, announced as length bytes (-1: unannounced) and
// read through slow.
func productClient(doc, wire []byte, length int64, slow func(io.Reader) io.Reader) *Client {
	body := append(append([]byte(nil), doc...), wire...)
	return &Client{Base: "http://spgemmd", HTTP: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    http.StatusOK,
			Header:        http.Header{"Content-Type": {"application/octet-stream"}},
			Body:          io.NopCloser(slow(bytes.NewReader(body))),
			ContentLength: length,
			Request:       req,
		}, nil
	})}}
}

func identity(r io.Reader) io.Reader { return r }

// TestClientDecodesProductAsItReads: a product that arrives a byte per read,
// in either wire encoding, decodes to what Deserialize makes of its bytes.
func TestClientDecodesProductAsItReads(t *testing.T) {
	for name, m := range map[string]*spmat.CSC{
		"dense-encoded":       genmat.ER(48, 5, 4),
		"hypersparse-encoded": genmat.Hypersparse(64, 700, 2, 9),
		"empty":               spmat.New(3, 0),
	} {
		wire := m.Serialize()
		doc := []byte(`{"rows":` + strconv.Itoa(int(m.Rows)) + `,"nnz":` + strconv.FormatInt(m.NNZ(), 10) + "}\n")
		cl := productClient(doc, wire, int64(len(doc)+len(wire)), iotest.OneByteReader)
		resp, got, err := cl.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := spmat.DeserializeFormat(wire, spmat.FormatCSC)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, name, got, want.(*spmat.CSC))
		if resp.Rows != m.Rows || resp.NNZ != m.NNZ() {
			t.Fatalf("%s: document decoded as %+v", name, resp)
		}
	}
}

// TestClientRejectsBrokenProduct: a body that ends early, bytes after the
// product, a Content-Length that lies either way or is missing, and a row
// out of range are errors, never a matrix.
func TestClientRejectsBrokenProduct(t *testing.T) {
	m := genmat.ER(48, 5, 4)
	wire := m.Serialize()
	if wire[16]&2 != 0 {
		t.Fatal("fixture is not dense-encoded")
	}
	badRow := bytes.Clone(wire)
	binary.LittleEndian.PutUint32(badRow[17+8*49:], 48) // the first row index, after 49 column pointers
	doc := []byte("{\"rows\":48}\n")
	whole := int64(len(doc) + len(wire))
	for name, c := range map[string]struct {
		wire   []byte
		length int64
	}{
		"body ends early":          {wire[:len(wire)-7], whole},
		"bytes after the product":  {append(bytes.Clone(wire), 1, 2, 3), whole + 3},
		"Content-Length too long":  {wire, whole + 10},
		"Content-Length too short": {wire, whole - 10},
		"no Content-Length":        {wire, -1},
		"row out of range":         {badRow, whole},
		"no document line":         {nil, int64(len(doc)) - 1},
	} {
		cl := productClient(doc, c.wire, c.length, identity)
		if _, got, err := cl.Multiply(MultiplyRequest{A: "a", B: "a", ReturnResult: true}); err == nil || got != nil {
			t.Errorf("%s: got %v, error %v", name, got, err)
		}
	}
}

// TestClientKeepsItsConnection: decoding a product reads the body through to
// its announced end, so the transport sees it finish and reuses the
// connection — a client that stopped one byte short would dial anew for
// every product.
func TestClientKeepsItsConnection(t *testing.T) {
	small, large := genmat.ER(64, 6, 7), genmat.RMAT(genmat.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 3, Weighted: true})
	s, err := New(testConfig(t, small, large))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(Handler(s))
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	cl := &Client{Base: srv.URL, HTTP: srv.Client()}
	for _, m := range []*spmat.CSC{small, large, small} {
		c, err := cl.MultiplyMatrices(m, m, "plus-times")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d wire bytes returned", c.CommBytes())
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("three uploads and three products took %d connections", n)
	}
}

// Matrices lists the resident matrices.
func (c *Client) Matrices() ([]MatrixInfo, error) {
	var out []MatrixInfo
	err := c.do("GET", "/matrices", nil, &out)
	return out, err
}

// TestLoadStreamsTheWireBytes: the body Load sends, and the one GetBody makes
// for a retry, are m.Serialize() byte for byte under its exact
// Content-Length, in both wire encodings and past one stream buffer; once
// Load has returned no stream's goroutine is left.
func TestLoadStreamsTheWireBytes(t *testing.T) {
	for name, m := range map[string]*spmat.CSC{
		"dense-encoded":       genmat.ER(48, 5, 4),
		"hypersparse-encoded": genmat.Hypersparse(64, 700, 2, 9),
		"past one buffer":     genmat.ER(2048, 8, 5),
	} {
		want := m.Serialize()
		start := runtime.NumGoroutine()
		cl := &Client{Base: "http://spgemmd", HTTP: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			got, err := io.ReadAll(req.Body)
			if err != nil {
				return nil, err
			}
			req.Body.Close()
			again, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			retry, err := io.ReadAll(again)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, want) || !bytes.Equal(retry, want) || req.ContentLength != int64(len(want)) {
				t.Errorf("%s: sent %d bytes (equal %v), retried %d (equal %v), announced %d; Serialize has %d", name,
					len(got), bytes.Equal(got, want), len(retry), bytes.Equal(retry, want), req.ContentLength, len(want))
			}
			if ct := req.Header.Get("Content-Type"); ct != "application/octet-stream" {
				t.Errorf("%s: Content-Type %q", name, ct)
			}
			return &http.Response{
				StatusCode: http.StatusOK,
				Header:     http.Header{"Content-Type": {"application/json"}},
				Body:       io.NopCloser(strings.NewReader(`{"name":"m"}`)),
				Request:    req,
			}, nil
		})}}
		if _, err := cl.Load("m", m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		settleGoroutines(t, start)
	}
}

// TestRefusedUploadEndsItsStream: a /load whose Content-Length is over the
// daemon's budget is refused with 413 before its body is read. The client
// returns the daemon's error, and the goroutine that streamed the body ends
// with the connection: the goroutine count comes back to where it started.
func TestRefusedUploadEndsItsStream(t *testing.T) {
	m := genmat.ER(8192, 32, 6) // 3.2 MB on the wire: more than the sockets buffer
	cl, s := startServer(t, Config{P: 4, MemBytes: 1 << 20})
	start := runtime.NumGoroutine()
	_, err := cl.Load("big", m)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge || ae.Code != "too_large" {
		t.Fatalf("a %d-byte upload over a 1 MiB budget: %v", m.CommBytes(), err)
	}
	settleGoroutines(t, start)
	if s.reg.Len() != 0 {
		t.Fatal("the refused matrix is resident")
	}
}
