package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/genmat"
	"repro/internal/spmat"
)

// TestDaemonJobsGiveBackWhatTheyDrew holds spmat's ledger of drawn bytes
// (spmat.Drawn) where each of the daemon's readers of a job found it: a
// count-only and a return_result /multiply over HTTP, and Service.Multiply in
// process with and without a result. A returned product is streamed from a
// pooled segment table of views into the ranks' lent chunks, which go back
// once the handler has written it; the test waits for the handler to return,
// not only for the client to have read the product. Each reader is warmed up
// first; the call's high-water mark must rise above the start, or the ledger
// would show nothing. The ledger is process-wide: no test of this package
// runs beside another.
func TestDaemonJobsGiveBackWhatTheyDrew(t *testing.T) {
	a := genmat.RMAT(genmat.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 6, Weighted: true})
	s, err := New(testConfig(t, a))
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(s)
	served := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/multiply" {
			served <- struct{}{}
		}
	}))
	t.Cleanup(srv.Close)
	cl := &Client{Base: srv.URL, HTTP: srv.Client()}
	if _, err := cl.Load("a", a); err != nil {
		t.Fatal(err)
	}
	overHTTP := func(req MultiplyRequest) func() error {
		return func() error {
			_, _, err := cl.Multiply(req)
			<-served
			return err
		}
	}
	inProcess := func(req MultiplyRequest) func() error {
		return func() error {
			_, err := s.Multiply(req)
			return err
		}
	}
	counted, returned := MultiplyRequest{A: "a", B: "a"}, MultiplyRequest{A: "a", B: "a", ReturnResult: true}
	for _, r := range []struct {
		name string
		call func() error
	}{
		{"count-only /multiply", overHTTP(counted)},
		{"return_result /multiply", overHTTP(returned)},
		{"Service.Multiply", inProcess(counted)},
		{"Service.Multiply with a result", inProcess(returned)},
	} {
		for range 3 {
			if err := r.call(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
		before, _ := spmat.Drawn(true)
		if err := r.call(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		after, peak := spmat.Drawn(false)
		t.Logf("%s: %d bytes drawn before, %d after, %d at most", r.name, before, after, peak)
		if after != before {
			t.Errorf("%s: %d bytes were drawn before the job and %d after: it kept %d", r.name, before, after, after-before)
		}
		if peak <= before {
			t.Errorf("%s: the job's high-water mark %d is not above the %d it started at: the ledger sees no draw", r.name, peak, before)
		}
	}
}
