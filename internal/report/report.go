// Package report renders the evaluation's tables and figures as terminal
// text: aligned tables and ASCII scatter plots standing in for the paper's
// charts.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each argument is rendered with
// %v, floats with 3 decimals.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case float32:
			row = append(row, fmt.Sprintf("%.3f", v))
		default:
			row = append(row, fmt.Sprintf("%v", c))
		}
	}
	t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// ScatterPoint is one labelled point of a scatter plot.
type ScatterPoint struct {
	X, Y  float64
	Label string
}

// Scatter renders an ASCII scatter plot, the terminal stand-in for the
// paper's figures. A vertical line is drawn at threshold when it falls
// inside the x-range (the paper's "threshold line"), and a horizontal line
// at y = 1 (the speedup break-even).
type Scatter struct {
	Title          string
	XLabel, YLabel string
	Width, Height  int
	Threshold      float64 // 0 = none
	BreakEvenY     float64 // 0 = none; typically 1.0 for speedup plots
	Points         []ScatterPoint
}

// String renders the plot.
func (s *Scatter) String() string {
	w, h := s.Width, s.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 24
	}
	if len(s.Points) == 0 {
		return s.Title + "\n(no points)\n"
	}
	minX, maxX, minY, maxY := s.ranges(0.04, 0.06)

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	col := func(x float64) int {
		c := int((x - minX) / (maxX - minX) * float64(w-1))
		return clamp(c, 0, w-1)
	}
	row := func(y float64) int {
		r := int((maxY - y) / (maxY - minY) * float64(h-1))
		return clamp(r, 0, h-1)
	}
	if s.BreakEvenY > 0 {
		r := row(s.BreakEvenY)
		for c := 0; c < w; c++ {
			grid[r][c] = '-'
		}
	}
	if s.Threshold > 0 {
		c := col(s.Threshold)
		for r := 0; r < h; r++ {
			grid[r][c] = '|'
		}
	}
	for _, p := range s.Points {
		grid[row(p.Y)][col(p.X)] = '*'
	}

	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	fmt.Fprintf(&b, "%s\n", s.YLabel)
	for r := 0; r < h; r++ {
		y := maxY - (maxY-minY)*float64(r)/float64(h-1)
		fmt.Fprintf(&b, "%8.2f |%s\n", y, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s+%s\n", strings.Repeat(" ", 9), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%9s%-*.4g%*.4g\n", "", w/2, minX, w-w/2, maxX)
	if s.XLabel != "" {
		fmt.Fprintf(&b, "%9s%s\n", "", s.XLabel)
	}
	if s.Threshold > 0 {
		fmt.Fprintf(&b, "%9s('|' marks the threshold at %.4g)\n", "", s.Threshold)
	}
	return b.String()
}

// ranges returns the plot's value ranges: the points' extent, widened to
// take in the threshold and break-even lines and to a unit span where it
// is flat, then padded on each side by the fractions padX and padY of the
// span so edge points stay visible. It needs at least one point.
func (s *Scatter) ranges(padX, padY float64) (minX, maxX, minY, maxY float64) {
	minX, maxX = s.Points[0].X, s.Points[0].X
	minY, maxY = s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if s.Threshold > 0 {
		minX, maxX = math.Min(minX, s.Threshold), math.Max(maxX, s.Threshold)
	}
	if s.BreakEvenY > 0 {
		minY, maxY = math.Min(minY, s.BreakEvenY), math.Max(maxY, s.BreakEvenY)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	dx, dy := (maxX-minX)*padX, (maxY-minY)*padY
	return minX - dx, maxX + dx, minY - dy, maxY + dy
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Bars renders a simple horizontal bar chart for labelled values (used for
// Fig. 1 and Fig. 7 style comparisons).
func Bars(title string, labels []string, values []float64, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	for i, v := range values {
		n := int(v / maxV * 48)
		fmt.Fprintf(&b, "  %-*s %7.3f%s %s\n", maxL, labels[i], v, unit, strings.Repeat("#", n))
	}
	return b.String()
}

// CellProgress formats one completed sweep cell as a progress line:
// "[ 12/ 84] POWER7 EP@SMT4    3.2s". A non-empty errMsg is appended as
// "  ERROR: ...".
func CellProgress(seq, total int, sys, bench string, smt int, elapsedSec float64, errMsg string) string {
	s := fmt.Sprintf("[%3d/%3d] %s %s@SMT%d  %5.1fs", seq, total, sys, bench, smt, elapsedSec)
	if errMsg != "" {
		s += "  ERROR: " + errMsg
	}
	return s
}

// RunStats formats a sweep's (or whole campaign's) timing summary:
// "84 cells (1 failed, 2 skipped), 12.3s wall, 96.1s serial-equivalent,
// 7.8x speedup, 8 workers". The parenthetical is omitted when nothing
// failed or was skipped.
func RunStats(cells, failed, skipped int, wallSec, serialSec, speedup float64, workers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cells", cells)
	if failed > 0 || skipped > 0 {
		fmt.Fprintf(&b, " (%d failed, %d skipped)", failed, skipped)
	}
	fmt.Fprintf(&b, ", %.1fs wall, %.1fs serial-equivalent, %.1fx speedup, %d workers",
		wallSec, serialSec, speedup, workers)
	return b.String()
}
