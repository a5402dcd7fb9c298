package service

import (
	"bytes"
	"encoding/binary"
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
// budget is 1 MB and on one with no budget, whose only bound is
// maxResidentBytes. Every input must end in 200 or a typed 4xx envelope, never
// a panic, and whatever is accepted must fit the bound in its resident form:
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

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, budget := range []int64{1 << 20, 0} {
			limit := budget
			if budget == 0 {
				limit = maxResidentBytes
				// Between a megabyte and the cap a declared column count is an
				// allocation the budget-less daemon is right to make; a fuzz
				// worker making it thousands of times a second is not the test.
				if len(body) >= 8 {
					if ptrs := 8 * (int64(binary.LittleEndian.Uint32(body[4:])) + 1); ptrs > 1<<20 && ptrs <= limit {
						continue
					}
				}
			}
			loadBodyOnce(t, body, budget, limit)
		}
	})
}

// loadBodyOnce posts body to a fresh service with the given budget and holds
// the answer to FuzzLoadBody's contract; limit is the bound an accepted
// matrix's resident form must fit.
func loadBodyOnce(t *testing.T, body []byte, budget, limit int64) {
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
		if need := 8*(int64(res.mat.Cols)+1) + 12*res.mat.NNZ(); need > limit {
			t.Fatalf("accepted a matrix needing %d bytes under a %d-byte bound (budget %d)", need, limit, budget)
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
		t.Fatalf("untyped refusal %d/%s (budget %d): %s", rec.Code, eb.Error.Code, budget, eb.Error.Message)
	}
}
