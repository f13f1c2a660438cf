// Package dump writes simulation output as CSV/gnuplot-friendly
// columns — the mini-app's stand-in for the reference code's
// visualisation dumps.
package dump

import (
	"fmt"
	"io"
	"strings"
)

// Columns writes named columns of equal length as CSV.
func Columns(w io.Writer, names []string, cols ...[]float64) error {
	if len(names) != len(cols) {
		return fmt.Errorf("dump: %d names for %d columns", len(names), len(cols))
	}
	if len(cols) == 0 {
		return fmt.Errorf("dump: no columns")
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("dump: column %q has %d rows, want %d", names[i], len(c), n)
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(names, ",")); err != nil {
		return err
	}
	for row := 0; row < n; row++ {
		for i := range cols {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%.10g", cols[i][row]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
