// Package experiments regenerates every table and figure of the paper's
// evaluation from a simulated fleet dataset. Each experiment returns a
// Result: the same rows/series the paper reports, plus paper-vs-measured
// notes for EXPERIMENTS.md. Generators that read no dataset (fig1, fig3, fig4)
// are registered as constants: Run computes them once per process.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/txtplot"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment key ("fig7", "tab2", ...).
	ID string
	// Title echoes the paper artifact.
	Title string
	// Header and Rows form the rendered table (figures render as the series
	// a plot would be drawn from).
	Header []string
	Rows   [][]string
	// Notes record paper-reported values next to measured ones.
	Notes []string
	// Plots optionally carries the figure's curves for terminal rendering.
	Plots    []txtplot.Series
	PlotOpts txtplot.Options
}

// AddCDF attaches one empirical CDF curve to the result's plot.
func (r *Result) AddCDF(name string, c *stats.CDF) {
	pts := c.Points(60)
	s := txtplot.Series{Name: name}
	for _, p := range pts {
		s.Points = append(s.Points, txtplot.Point{X: p.X, Y: p.Y})
	}
	r.Plots = append(r.Plots, s)
}

// AddRatioCurve attaches a bucketed ratio curve (x = bucket midpoint,
// y = ratio).
func (r *Result) AddRatioCurve(name string, pts []stats.RatioPoint) {
	s := txtplot.Series{Name: name}
	for _, p := range pts {
		s.Points = append(s.Points, txtplot.Point{X: (p.Lo + p.Hi) / 2, Y: p.Ratio})
	}
	r.Plots = append(r.Plots, s)
}

// RenderPlot draws the attached curves, if any.
func (r *Result) RenderPlot(w io.Writer) {
	if len(r.Plots) == 0 {
		return
	}
	fmt.Fprint(w, txtplot.Render(r.Plots, r.PlotOpts))
}

// addQuantiles appends one row per percentile in ps: "pN", then each CDF's
// value at it through format.
func (r *Result) addQuantiles(ps []float64, format func(float64) string, cdfs ...*stats.CDF) {
	for _, p := range ps {
		row := []string{fmt.Sprintf("p%.0f", p)}
		for _, c := range cdfs {
			row = append(row, format(c.Quantile(p)))
		}
		r.AddRow(row...)
	}
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render writes the result as an aligned text table.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	if len(r.Header) > 0 {
		line(r.Header)
		sep := make([]string, len(r.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
	}
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderMarkdown writes the result as a GitHub-flavored markdown section.
func (r *Result) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r.Header, " | "))
		sep := make([]string, len(r.Header))
		for i := range sep {
			sep[i] = "---"
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
		for _, row := range r.Rows {
			fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "- %s\n", n)
	}
	if len(r.Plots) > 0 {
		fmt.Fprintf(w, "\n```\n%s```\n", txtplot.Render(r.Plots, r.PlotOpts))
	}
	fmt.Fprintln(w)
}

// Source is the dataset view the experiments consume. One thing produces it:
// a sharded store opened as a *dataset.Reader (internal/queryd wraps the same
// reader with its shard cache), so the runs stream one shard at a time and
// peak memory stays bounded by one rack plus the experiment's accumulators.
// It stays an interface so queryd can interpose that cache and tests can
// substitute a fake.
type Source interface {
	// Config returns the generation configuration.
	Config() fleet.Config
	// RackMetas returns the classified per-rack metadata.
	RackMetas() []fleet.RackMeta
	// EachRun streams every run with its rack's class, in dataset order. Runs
	// whose rack metadata is missing are skipped and counted, not delivered.
	// The *RunSummary is only valid during the callback — copy to retain.
	EachRun(fn func(r *fleet.RunSummary, c fleet.Class) error) (skipped int, err error)
}

// ctxWalker is a dataset view whose walks take a context.
type ctxWalker interface {
	Config() fleet.Config
	RackMetas() []fleet.RackMeta
	EachRunCtx(ctx context.Context, fn func(r *fleet.RunSummary, c fleet.Class) error) (skipped int, err error)
}

// WithContext binds src's walks to ctx, so an experiment over the result
// stops mid-shard once ctx ends, failing with ctx's error.
func WithContext(ctx context.Context, src ctxWalker) Source { return bound{src, ctx} }

type bound struct {
	ctxWalker
	ctx context.Context
}

func (b bound) EachRun(fn func(r *fleet.RunSummary, c fleet.Class) error) (int, error) {
	return b.EachRunCtx(b.ctx, fn)
}

// eachRun streams src's runs, discarding the skipped-run count (tab1 is the
// one experiment that surfaces it).
func eachRun(src Source, fn func(r *fleet.RunSummary, c fleet.Class) error) error {
	_, err := src.EachRun(fn)
	return err
}

// Generator produces one experiment from a dataset source.
type Generator func(src Source) (*Result, error)

// registry maps experiment ids to generators, populated by init functions in
// the per-figure files.
var registry = map[string]Generator{}

func register(id string, g Generator) { registry[id] = g }

// registerConst registers a generator that ignores its Source. Its Result
// depends on nothing but the code, so it is a constant of the binary: computed
// on first use through Run, shared read-only by every caller after. The
// exported generator itself stays un-memoised.
func registerConst(id string, g Generator) {
	once := sync.OnceValues(func() (*Result, error) { return g(nil) })
	register(id, func(Source) (*Result, error) { return once() })
}

// IDs lists registered experiment ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id. The Result may be shared with other
// callers (registerConst): treat it as read-only.
func Run(id string, src Source) (*Result, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return g(src)
}

// refusal is an experiment's verdict that the dataset lacks what it needs
// (too few runs or rack classes), as opposed to a failure to read it.
type refusal string

func (r refusal) Error() string { return string(r) }

// RunAll executes every registered experiment in id order. One that refuses
// the dataset yields a Result with its id and the refusal as a note; any other
// error — a corrupt shard, an I/O error, a walk cancelled or past its deadline
// (WithContext) — aborts the run.
func RunAll(src Source) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		r, err := Run(id, src)
		var no refusal
		if errors.As(err, &no) {
			r = &Result{ID: id, Title: "refused", Notes: []string{err.Error()}}
		} else if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }

// fmtPct renders a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
