package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/spmat"
)

// Client speaks the server's HTTP API from Go: JSON for everything but the
// matrices themselves, which travel as their wire bytes (Load's request body,
// Multiply's response tail). The zero HTTP client is http.DefaultClient; Base
// is the server root (e.g. "http://127.0.0.1:8347").
type Client struct {
	Base string
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is the decoded error envelope, surfaced as an error with the
// server's code and message.
type apiError struct {
	Status  int
	Code    string
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("service: %s (%d %s)", e.Message, e.Status, e.Code)
}

// send issues one request (body nil: none) and returns the server's 200
// response for the caller to read and close; any other status is returned as
// the error its JSON envelope carries.
func (c *Client) send(method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Message == "" {
			return nil, fmt.Errorf("service: %s %s: HTTP %d", method, path, resp.StatusCode)
		}
		return nil, &apiError{Status: resp.StatusCode, Code: eb.Error.Code, Message: eb.Error.Message}
	}
	return resp, nil
}

// do posts (or gets, when in is nil and method is GET) JSON and decodes the
// JSON response into out.
func (c *Client) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, err := c.send(method, path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Load ships m to the server — its exact binary wire format as the request
// body, the name in the query — and makes it resident under name. Loading
// identical content twice is a no-op.
func (c *Client) Load(name string, m *spmat.CSC) (LoadResponse, error) {
	return c.loadWire(name, m.Serialize())
}

// loadWire is Load for a matrix already serialized.
func (c *Client) loadWire(name string, wire []byte) (LoadResponse, error) {
	var out LoadResponse
	resp, err := c.send("POST", "/load?name="+url.QueryEscape(name), "application/octet-stream", wire)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// LoadGenerated asks the server to synthesize and load a workload.
func (c *Client) LoadGenerated(name string, g GeneratorSpec) (LoadResponse, error) {
	var out LoadResponse
	err := c.do("POST", "/load", LoadRequest{Name: name, Generator: &g}, &out)
	return out, err
}

// Plan returns the (cached or fresh) planner decision for a resident pair.
func (c *Client) Plan(a, b string) (PlanResult, error) {
	var out PlanResult
	err := c.do("POST", "/plan", PlanRequest{A: a, B: b}, &out)
	return out, err
}

// Multiply runs one job. When req.ReturnResult is set, the output matrix is
// decoded from the wire bytes that follow the response document as they
// arrive — the body is never held whole — and returned alongside it
// (bit-identical to the engine's assembled output: the wire format is exact).
// Such a response must announce its length, as the daemon always does.
func (c *Client) Multiply(req MultiplyRequest) (MultiplyResponse, *spmat.CSC, error) {
	var out MultiplyResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, nil, err
	}
	resp, err := c.send("POST", "/multiply", "application/json", body)
	if err != nil {
		return out, nil, err
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") != "application/octet-stream" {
		return out, nil, json.NewDecoder(resp.Body).Decode(&out)
	}
	if resp.ContentLength < 0 {
		return out, nil, fmt.Errorf("service: /multiply response carries a product but no Content-Length")
	}
	rd := bufio.NewReader(io.LimitReader(resp.Body, resp.ContentLength))
	doc, err := rd.ReadBytes('\n')
	if err != nil {
		return out, nil, fmt.Errorf("service: /multiply response has no document line: %w", err)
	}
	if err := json.Unmarshal(doc, &out); err != nil {
		return out, nil, err
	}
	m, err := spmat.DeserializeFrom(rd, resp.ContentLength-int64(len(doc)), spmat.FormatCSC)
	if err != nil {
		return out, nil, fmt.Errorf("service: reading /multiply product: %w", err)
	}
	return out, m.(*spmat.CSC), nil
}

// Stats fetches the server's counters.
func (c *Client) Stats() (Stats, error) {
	var out Stats
	err := c.do("GET", "/stats", nil, &out)
	return out, err
}

// MultiplyMatrices is the client side of the apps' MultiplyFunc contract: it
// makes both operands resident under content-derived names (idempotent — an
// operand the server already holds is acknowledged, not stored again) and
// multiplies them under the named semiring, returning the exact output. Each
// operand is serialized once, for its name and for its upload, and when the
// two are the same matrix — every MCL expansion — it crosses once. Iterated
// apps pointed at one server therefore get resident-matrix reuse and
// plan-cache hits with no bookkeeping.
func (c *Client) MultiplyMatrices(a, b *spmat.CSC, semiringName string) (*spmat.CSC, error) {
	an, err := c.ensureLoaded(a, "")
	if err != nil {
		return nil, err
	}
	bn := an
	if b != a {
		if bn, err = c.ensureLoaded(b, an); err != nil {
			return nil, err
		}
	}
	_, out, err := c.Multiply(MultiplyRequest{A: an, B: bn, Semiring: semiringName, ReturnResult: true})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("service: server returned no result matrix")
	}
	return out, nil
}

// ensureLoaded makes m resident under a name derived from its content hash —
// the first 16 hex digits of its fingerprint's — so the same matrix maps to
// the same resident slot across calls and clients. The matrix is serialized
// once, for the hash and for the upload; content whose name is sent, the one
// the caller has just made resident, is not uploaded again.
func (c *Client) ensureLoaded(m *spmat.CSC, sent string) (string, error) {
	wire := m.Serialize()
	name := "m-" + spmat.WireHash(wire)[:16]
	if name == sent {
		return name, nil
	}
	_, err := c.loadWire(name, wire)
	return name, err
}
