package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// FuzzLoadBody drives the binary /load route — body bound, wire-native
// decode, inflation check, registry — with arbitrary bytes on a service whose
// budget is 1 MB. Every input must end in 200 or a typed 4xx envelope, never
// a panic, and whatever is accepted must fit the budget in its resident form:
// an input that would inflate past it (hostileHeader) is refused before the
// CSC form is allocated.
func FuzzLoadBody(f *testing.F) {
	hyper := genmat.Hypersparse(8, 200, 2, 41).Serialize()
	dense := genmat.ER(16, 4, 42).Serialize()
	if hyper[16]&2 == 0 || dense[16]&2 != 0 {
		f.Fatal("seeds do not cover both wire encodings")
	}
	f.Add(hyper)
	f.Add(dense)
	f.Add(hostileHeader(math.MaxInt32))
	f.Add(hostileHeader(1 << 10))
	f.Add(hyper[:len(hyper)-5])
	f.Add(dense[:20])
	f.Add(append(bytes.Clone(dense), 0))
	f.Add([]byte{})

	const budget = 1 << 20
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{P: 4, MemBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/load?name=m", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		Handler(s).ServeHTTP(rec, req)

		if rec.Code == http.StatusOK {
			var lr LoadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
				t.Fatalf("accepted, but the answer is not a LoadResponse: %v", err)
			}
			res, err := s.reg.get("m")
			if err != nil {
				t.Fatalf("accepted, but not resident: %v", err)
			}
			if need := 8*(int64(res.mat.Cols)+1) + 12*res.mat.NNZ(); need > budget {
				t.Fatalf("accepted a matrix needing %d bytes under a %d-byte budget", need, budget)
			}
			if !lr.Fingerprint.ContentEqual(spmat.FingerprintOf(res.mat)) {
				t.Fatalf("answered fingerprint is not the resident matrix's")
			}
			return
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Message == "" {
			t.Fatalf("status %d without the JSON envelope: %q", rec.Code, rec.Body.Bytes())
		}
		switch {
		case rec.Code == http.StatusBadRequest && eb.Error.Code == "bad_request":
		case rec.Code == http.StatusRequestEntityTooLarge && eb.Error.Code == "too_large":
		default:
			t.Fatalf("untyped refusal %d/%s: %s", rec.Code, eb.Error.Code, eb.Error.Message)
		}
	})
}
