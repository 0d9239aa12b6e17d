package report

import (
	"fmt"
	"strings"
)

// SVG rendering: the same figures the terminal plots show, as standalone
// SVG documents a browser can display. Everything is generated with the
// standard library; the value ranges come from the ASCII renderer's
// Scatter.ranges, so the two views always agree.

// svgTheme holds the colours used by the SVG renderers.
var svgTheme = struct {
	bg, axis, grid, point, threshold, breakeven, text string
}{
	bg:        "#ffffff",
	axis:      "#333333",
	grid:      "#dddddd",
	point:     "#1f6fb2",
	threshold: "#c23b22",
	breakeven: "#888888",
	text:      "#222222",
}

// SVG renders the scatter as a complete SVG document. Points carry their
// labels as hover tooltips (<title> elements).
func (s *Scatter) SVG() string { return s.svg(false) }

// svg renders the scatter's document; with line set, a polyline also joins
// the points in order.
func (s *Scatter) svg(line bool) string {
	const (
		w, h                   = 720, 480
		padL, padR, padT, padB = 70, 20, 40, 60
	)
	plotW, plotH := float64(w-padL-padR), float64(h-padT-padB)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", w, h, svgTheme.bg)
	if s.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="16" fill="%s">%s</text>`+"\n",
			padL, svgTheme.text, xmlEscape(s.Title))
	}
	if len(s.Points) == 0 {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="14" fill="%s">(no points)</text>`+"\n",
			w/2-30, h/2, svgTheme.text)
		b.WriteString("</svg>\n")
		return b.String()
	}

	minX, maxX, minY, maxY := s.ranges(0.05, 0.07)
	px := func(x float64) float64 { return float64(padL) + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return float64(padT) + (maxY-y)/(maxY-minY)*plotH }

	// Grid and tick labels: five divisions per axis.
	for i := 0; i <= 5; i++ {
		fx := minX + (maxX-minX)*float64(i)/5
		fy := minY + (maxY-minY)*float64(i)/5
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s"/>`+"\n",
			px(fx), padT, px(fx), h-padB, svgTheme.grid)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s"/>`+"\n",
			padL, py(fy), w-padR, py(fy), svgTheme.grid)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" fill="%s" text-anchor="middle">%.3g</text>`+"\n",
			px(fx), h-padB+16, svgTheme.text, fx)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" fill="%s" text-anchor="end">%.3g</text>`+"\n",
			padL-6, py(fy)+4, svgTheme.text, fy)
	}

	// Axes frame.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.1f" height="%.1f" fill="none" stroke="%s"/>`+"\n",
		padL, padT, plotW, plotH, svgTheme.axis)

	if s.BreakEvenY > 0 {
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-dasharray="6,4"/>`+"\n",
			padL, py(s.BreakEvenY), w-padR, py(s.BreakEvenY), svgTheme.breakeven)
	}
	if s.Threshold > 0 {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-dasharray="6,4"/>`+"\n",
			px(s.Threshold), padT, px(s.Threshold), h-padB, svgTheme.threshold)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" fill="%s">threshold %.4g</text>`+"\n",
			px(s.Threshold)+4, padT+14, svgTheme.threshold, s.Threshold)
	}

	for _, p := range s.Points {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="%s" fill-opacity="0.8">`,
			px(p.X), py(p.Y), svgTheme.point)
		if p.Label != "" {
			fmt.Fprintf(&b, `<title>%s (%.4g, %.4g)</title>`, xmlEscape(p.Label), p.X, p.Y)
		}
		b.WriteString("</circle>\n")
	}

	// Axis labels.
	if s.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="13" fill="%s" text-anchor="middle">%s</text>`+"\n",
			padL+int(plotW/2), h-16, svgTheme.text, xmlEscape(s.XLabel))
	}
	if s.YLabel != "" {
		mid := padT + int(plotH/2)
		fmt.Fprintf(&b, `<text x="16" y="%d" font-family="sans-serif" font-size="13" fill="%s" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
			mid, svgTheme.text, mid, xmlEscape(s.YLabel))
	}
	if line && len(s.Points) > 1 {
		pts := make([]string, len(s.Points))
		for i, p := range s.Points {
			pts[i] = fmt.Sprintf("%.1f,%.1f", px(p.X), py(p.Y))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
			strings.Join(pts, " "), svgTheme.point)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// BarsSVG renders a horizontal bar chart as an SVG document.
func BarsSVG(title string, labels []string, values []float64, unit string) string {
	const (
		w    = 720
		rowH = 32
		padL = 170
		padR = 90
		padT = 48
		padB = 16
	)
	h := padT + padB + rowH*len(values)
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", w, h, svgTheme.bg)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="16" fill="%s">%s</text>`+"\n",
		16, svgTheme.text, xmlEscape(title))
	for i, v := range values {
		y := padT + i*rowH
		bw := v / maxV * float64(w-padL-padR)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="13" fill="%s" text-anchor="end">%s</text>`+"\n",
			padL-8, y+rowH/2+4, svgTheme.text, xmlEscape(labels[i]))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="%s" fill-opacity="0.85"/>`+"\n",
			padL, y+6, bw, rowH-12, svgTheme.point)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="12" fill="%s">%.3f%s</text>`+"\n",
			float64(padL)+bw+6, y+rowH/2+4, svgTheme.text, v, xmlEscape(unit))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// CurveSVG renders an (x, y) polyline — the threshold-search curves of
// Figs. 16 and 17 — as an SVG document.
func CurveSVG(title, xlabel, ylabel string, xs, ys []float64) string {
	sc := Scatter{Title: title, XLabel: xlabel, YLabel: ylabel}
	for i := range xs {
		sc.Points = append(sc.Points, ScatterPoint{X: xs[i], Y: ys[i]})
	}
	return sc.svg(true)
}

// xmlEscape escapes the five XML special characters.
func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")
	return r.Replace(s)
}
