package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/costmodel"
)

// Table is one rectangular block of results.
type Table struct {
	// Name captions the table.
	Name string
	// Header labels the columns.
	Header []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes carries caveats (scaling substitutions, seeds, …).
	Notes []string
	// cols render a sweep table's row after its point's labels (sweep).
	cols []column
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Report is an experiment's full output.
type Report struct {
	// ID is the registry key (e.g. "fig6").
	ID string
	// Title restates what the paper's artifact shows.
	Title string
	// PaperClaim summarizes the shape the paper reports.
	PaperClaim string
	// Tables hold the measured series.
	Tables []*Table
	// Findings state the measured shape, to set against PaperClaim.
	Findings []string
}

// NewTable appends and returns a fresh table.
func (r *Report) NewTable(name string, header ...string) *Table {
	t := &Table{Name: name, Header: header}
	r.Tables = append(r.Tables, t)
	return t
}

// Finding records one measured-shape statement.
func (r *Report) Finding(format string, args ...any) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// Render writes the report as aligned text.
func (r *Report) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&sb, "paper: %s\n", r.PaperClaim)
	}
	for _, t := range r.Tables {
		fmt.Fprintf(&sb, "\n-- %s --\n", t.Name)
		renderTable(&sb, t)
		for _, n := range t.Notes {
			fmt.Fprintf(&sb, "note: %s\n", n)
		}
	}
	if len(r.Findings) > 0 {
		sb.WriteString("\nmeasured:\n")
		for _, f := range r.Findings {
			fmt.Fprintf(&sb, "  - %s\n", f)
		}
	}
	sb.WriteString("\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// renderTable aligns columns to their widest cell.
func renderTable(sb *strings.Builder, t *Table) {
	widths := make([]int, len(t.Header))
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range row[:min(len(row), len(widths))] {
			widths[i] = max(widths[i], len(c))
		}
	}
	line := func(cells []string) {
		var l strings.Builder
		for i, c := range cells {
			if i > 0 {
				l.WriteString("  ")
			}
			l.WriteString(c)
			if i < len(widths) {
				l.WriteString(strings.Repeat(" ", max(0, widths[i]-len(c))))
			}
		}
		sb.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	line(t.Header)
	rule := 0
	for _, x := range widths {
		rule += x + 2
	}
	sb.WriteString(strings.Repeat("-", max(0, rule-2)) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
}

// Experiment is one table or figure of the paper's evaluation, or an
// ablation: its registry id, its title, the shape the paper reports, and the
// code that measures it.
type Experiment struct {
	ID    string
	Title string
	// claim summarizes the shape the paper reports.
	claim string
	// run fills the experiment's report under opts, whose machine is set.
	run func(r *Report, opts RunOpts) error
}

// Run measures the experiment under opts (on Cori-KNL unless opts names a
// machine) and returns its report.
func (e *Experiment) Run(opts RunOpts) (*Report, error) {
	if opts.Machine.Name == "" {
		opts.Machine = costmodel.CoriKNL()
	}
	r := e.report()
	if err := e.run(r, opts); err != nil {
		return nil, err
	}
	return r, nil
}

// report returns the experiment's report before anything is measured.
func (e *Experiment) report() *Report {
	return &Report{ID: e.ID, Title: e.Title, PaperClaim: e.claim}
}

var registry = map[string]*Experiment{}

// register adds an experiment at init time.
func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (run 'list')", id)
	}
	return e, nil
}

// List returns all experiments ordered by id.
func List() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return idOrder(out[a].ID) < idOrder(out[b].ID) })
	return out
}

// idOrder sorts table2 < table3 < … < fig3 < fig4 … numerically; ids that are
// neither tables nor figures (ablations like "pipeline") sort after them,
// alphabetically.
func idOrder(id string) string {
	var n int
	switch {
	case strings.HasPrefix(id, "table"):
		fmt.Sscanf(id, "table%d", &n)
		return fmt.Sprintf("0table%04d", n)
	case strings.HasPrefix(id, "fig"):
		fmt.Sscanf(id, "fig%d", &n)
		return fmt.Sprintf("1fig%04d", n)
	}
	return "2" + id
}
