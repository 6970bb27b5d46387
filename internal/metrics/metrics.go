// Package metrics provides the measurement primitives shared by all
// experiments: streaming mean/variance, exact-quantile samples,
// histograms, load-imbalance statistics, and fixed-width table printers
// that render paper-style tables and figure series.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Welford accumulates a running mean and variance without storing samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 || x > w.max {
		w.max = x
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the sample mean, or 0 if no observations were recorded.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance (n-1 denominator), or 0 for n < 2.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Max returns the largest observation, or 0 if none were recorded.
func (w *Welford) Max() float64 { return w.max }

// CV returns the coefficient of variation (std/mean), the paper-standard
// measure of load imbalance across servers; 0 when the mean is 0.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Std() / w.mean
}

// Sample stores observations for exact quantiles. Experiments in this
// repository are small enough (≤ a few million points) that exact
// quantiles are affordable and preferable to sketches.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using nearest-rank, or 0 if
// the sample is empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	i := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if i < 0 {
		i = 0
	}
	return s.xs[i]
}

// Mean returns the sample mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation, or 0 if empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs[len(s.xs)-1]
}

// Histogram counts observations into caller-defined bucket upper bounds.
// An observation lands in the first bucket whose bound is ≥ the value;
// values above the last bound land in an implicit overflow bucket.
type Histogram struct {
	bounds []float64
	counts []int
	total  int
}

// NewHistogram creates a histogram with the given ascending upper bounds.
// It panics if bounds is empty or not strictly ascending.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: NewHistogram with no bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: NewHistogram bounds not strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int, len(b))}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	i := sort.SearchFloat64s(h.bounds, x)
	if i < len(h.bounds) {
		h.counts[i]++
	}
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// Quantile returns the upper bound of the bucket containing the
// q-quantile — a conservative (rounded-up) quantile estimate, the form
// the hedging policy and the serving front-end's shedding controller
// consume. It returns 0 when the histogram is empty and +Inf when the
// quantile falls in the overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	need := int(math.Ceil(q * float64(h.total)))
	if need < 1 {
		need = 1
	}
	cum := 0
	for i, b := range h.bounds {
		cum += h.counts[i]
		if cum >= need {
			return b
		}
	}
	return math.Inf(1)
}

// Imbalance summarizes a per-server load vector the way Figure 2 of the
// paper does: each entry is one server's busy load, and the headline
// numbers are the mean (the dashed line in the figure), the max/mean ratio
// (how far the busiest server is above the line) and the coefficient of
// variation.
type Imbalance struct {
	Loads   []float64
	Mean    float64
	Max     float64
	MaxOver float64 // Max / Mean; 1.0 is perfectly balanced
	CV      float64
}

// NewImbalance computes imbalance statistics for the given load vector.
func NewImbalance(loads []float64) Imbalance {
	var w Welford
	for _, l := range loads {
		w.Add(l)
	}
	im := Imbalance{
		Loads: append([]float64(nil), loads...),
		Mean:  w.Mean(),
		Max:   w.Max(),
		CV:    w.CV(),
	}
	if im.Mean > 0 {
		im.MaxOver = im.Max / im.Mean
	}
	return im
}

// Table renders paper-style fixed-width tables. Build one with NewTable,
// add rows, then write it with WriteTo or render it with String.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Ratio returns part/total, or 0 when total is 0 — the guard every
// hit-ratio and coverage computation repeats.
func Ratio(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total
}

// FormatPercent renders a [0,1] fraction as a percentage with one
// decimal ("42.7%"), the house style for hit-ratio and coverage tables.
func FormatPercent(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// FormatFloat renders a float compactly: integers without decimals,
// otherwise 3 significant-looking decimals.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// Render writes the rendered table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// Bar renders a crude horizontal bar of the given relative width (0..1)
// scaled to maxCols columns, used to sketch figures in terminal output.
func Bar(frac float64, maxCols int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(math.Round(frac * float64(maxCols)))
	return strings.Repeat("#", n)
}
