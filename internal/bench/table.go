// Package bench implements the evaluation harness: one experiment per
// figure/table of the reproduced paper (see DESIGN.md §4 for the index),
// each producing a rendered table that cmd/espbench prints and
// bench_test.go exercises as Go benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title is the human-readable experiment name.
	Title string
	// Anchor cites what the experiment reconstructs from the paper.
	Anchor string
	// Columns are the header names.
	Columns []string
	// Rows hold the cells, one slice per row, aligned with Columns.
	Rows [][]string
	// Notes carries qualitative observations (who wins, expected shape).
	Notes []string
	// Host identifies the machine the experiment ran on; cmd/espbench
	// stamps it on JSON output so recorded baselines carry provenance.
	Host *Host `json:",omitempty"`
}

// AddRow appends a row from formatted values.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s\n   (%s)\n", t.ID, t.Title, t.Anchor); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	underline := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		underline[i] = strings.Repeat("-", len(c))
	}
	fmt.Fprintln(tw, strings.Join(underline, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "   note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV (ID and title as comment lines).
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s,%s\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Cell formatting helpers shared by the experiments.

func fmtInt(v int) string      { return fmt.Sprintf("%d", v) }
func fmtU64(v uint64) string   { return fmt.Sprintf("%d", v) }
func fmtF1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func fmtF3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func fmtPct(v float64) string  { return fmt.Sprintf("%.0f%%", v*100) }
func fmtKevS(v float64) string { return fmt.Sprintf("%.0f", v/1000) }
