package service

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/spmat"
)

// MatrixInfo describes one resident matrix.
type MatrixInfo struct {
	Name        string            `json:"name"`
	Fingerprint spmat.Fingerprint `json:"fingerprint"`
}

// resident is one registry slot: the matrix itself plus the fingerprint
// computed once at load time (the O(nnz) hash never runs again for this
// content), and the matrix dealt out for the grids and formats jobs have run
// it on — its split sets, which the service's splitCache fills, bounds and
// guards.
type resident struct {
	name   string
	mat    *spmat.CSC
	fp     spmat.Fingerprint
	splits map[splitKey]*splitSet
}

// Registry holds matrices resident by name. It is safe for concurrent use;
// matrices handed out by get are shared read-only with every job that
// multiplies them (the engine never mutates its operands).
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*resident
}

// maxResidentBytes caps the CSC form — 8 bytes a column pointer, 12 an entry —
// of one resident matrix on a service started without a memory budget. A
// budget is the operator's bound and replaces it; without one this constant is
// the only thing between a 21-byte upload declaring 2³¹−1 empty columns and a
// 16 GiB allocation. 1 GiB holds some 80 million entries, past anything the
// simulated cluster multiplies on one host.
const maxResidentBytes = 1 << 30

// checkResident refuses, as errOverBudget, a matrix of cols columns and nnz
// entries whose CSC form exceeds what one resident matrix may take: the
// service's budget, or maxResidentBytes when it has none. Every /load route
// calls it before that form is allocated.
func checkResident(name string, cols, nnz, budget int64) error {
	limit, what := budget, "the memory budget"
	if budget <= 0 {
		limit, what = maxResidentBytes, "the cap on a resident matrix without one"
	}
	if need := 8*(cols+1) + 12*nnz; need > limit {
		return fmt.Errorf("service: %q needs %d bytes resident, %s is %d: %w", name, need, what, limit, errOverBudget)
	}
	return nil
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*resident)}
}

// Load makes m resident under name and returns its fingerprint. Loading
// identical content under an existing name is an idempotent no-op
// (alreadyLoaded = true); different content under an existing name is a
// conflict — callers must pick a new name, which keeps every cached plan
// that mentions the old fingerprint valid.
func (r *Registry) Load(name string, m *spmat.CSC) (fp spmat.Fingerprint, alreadyLoaded bool, err error) {
	if name == "" {
		return spmat.Fingerprint{}, false, fmt.Errorf("service: matrix name must not be empty")
	}
	fp = spmat.FingerprintOf(m)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok {
		if old.fp.ContentEqual(fp) {
			return old.fp, true, nil
		}
		return spmat.Fingerprint{}, false, fmt.Errorf("service: matrix %q is already loaded with different content (%s vs %s)", name, old.fp.Key(), fp.Key())
	}
	r.byName[name] = &resident{name: name, mat: m, fp: fp, splits: make(map[splitKey]*splitSet)}
	return fp, false, nil
}

// get returns the named resident matrix.
func (r *Registry) get(name string) (*resident, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	res, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("service: no matrix loaded as %q", name)
	}
	return res, nil
}

// List returns the resident matrices, sorted by name.
func (r *Registry) List() []MatrixInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MatrixInfo, 0, len(r.byName))
	for _, res := range r.byName {
		out = append(out, MatrixInfo{Name: res.name, Fingerprint: res.fp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of resident matrices.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}
