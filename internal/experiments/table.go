package experiments

import (
	"fmt"
	"strings"
)

// Table is a titled grid of result rows, rendered as aligned text or CSV.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRowf appends a row built by applying fmt.Sprintf("%v") to each value,
// with float64 values rendered compactly.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = formatFloat(x)
		default:
			cells[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, cells)
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 0.001 && x < 100000:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", x), "0"), ".")
	default:
		return fmt.Sprintf("%.3e", x)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting — cells are
// numeric or simple labels).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
