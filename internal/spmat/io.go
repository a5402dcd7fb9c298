package spmat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteMatrixMarket writes m in MatrixMarket coordinate real general format
// with 1-based indices. Entries are emitted column-major.
func WriteMatrixMarket(w io.Writer, m *CSC) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for j := int32(0); j < m.Cols; j++ {
		rows, vals := m.Column(j)
		for p := range rows {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", rows[p]+1, j+1, vals[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate file. Real, integer, and
// pattern fields are supported; the general and symmetric symmetries are
// supported (symmetric files are expanded). Duplicate coordinates are summed.
func ReadMatrixMarket(r io.Reader) (*CSC, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("spmat: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("spmat: unsupported MatrixMarket header %q", sc.Text())
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("spmat: unsupported field %q", field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("spmat: unsupported symmetry %q", symmetry)
	}
	// Skip comments, read size line.
	var rows, cols int32
	var nnz int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("spmat: malformed size line %q", line)
		}
		r64, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil {
			return nil, err
		}
		c64, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, err
		}
		nnz, err = strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, err
		}
		if r64 < 0 || c64 < 0 || nnz < 0 {
			return nil, fmt.Errorf("spmat: negative size line %q", line)
		}
		rows, cols = int32(r64), int32(c64)
		break
	}
	// The declared nnz is only a capacity hint; cap it so a hostile header
	// cannot force a huge allocation before any entry is parsed.
	capHint := nnz
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	ts := make([]Triple, 0, capHint)
	var entries int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("spmat: malformed entry %q", line)
		}
		i64, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil {
			return nil, err
		}
		j64, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, err
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("spmat: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, err
			}
		}
		i, j := int32(i64-1), int32(j64-1)
		entries++
		ts = append(ts, Triple{Row: i, Col: j, Val: v})
		if symmetry == "symmetric" && i != j {
			ts = append(ts, Triple{Row: j, Col: i, Val: v})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Everything so far was sized by the bytes that arrived; the matrix is
	// sized by the size line (8 bytes a declared column). A size line that
	// declares entries the input does not hold is a truncated or hostile file
	// — "0 222222222 2" and nothing else asks for 1.8 GB of column pointers —
	// and is refused before that allocation.
	if entries < nnz {
		return nil, fmt.Errorf("spmat: size line declares %d entries, the input holds %d", nnz, entries)
	}
	return FromTriples(rows, cols, ts, nil)
}
