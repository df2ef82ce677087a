// Package bench provides the experiment harness behind the sentinel-bench
// binary and TestExperimentsRun: workload generators
// for the paper's motivating domains (employees/managers, stocks/
// portfolios, patients), shared Go-defined schemas, and a plain-text table
// printer that renders each experiment the way the paper's evaluation
// would.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders an aligned plain-text table.
type Table struct {
	Title   string
	Note    string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, w2 := range widths {
		total += w2 + 2
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	var hb strings.Builder
	for i, h := range t.headers {
		fmt.Fprintf(&hb, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(hb.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.rows {
		var rb strings.Builder
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&rb, "%-*s  ", widths[i], c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(rb.String(), " "))
	}
	if t.Note != "" {
		fmt.Fprintln(w, t.Note)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
