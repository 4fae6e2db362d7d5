// Command nvbench reproduces the paper's tables and figures.
//
// Usage:
//
//	nvbench -list
//	nvbench -exp table1|figure2|table2|table3|figure4|figure5|figure6|table4|figure7|figure8|sizes|all
//	        [-scale 0.00390625] [-threads N] [-seed 42] [-out BENCH_x.json]
//
// -out additionally persists every rendered table as a benchfmt-enveloped
// JSON artifact (schema, git commit, timestamp) for trajectory diffing;
// -exp loadgen runs the open-loop latency sweep from internal/loadgen
// against a self-hosted nvserver.
//
// -scale 1 regenerates paper-size traces (hundreds of millions of stores;
// slow); the default 1/256 preserves every flush ratio and speedup shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nvmcache/internal/benchfmt"
	"nvmcache/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	scale := flag.Float64("scale", 1.0/256, "workload scale relative to the paper's problem sizes")
	threads := flag.Int("threads", 1, "thread count for single-run experiments")
	seed := flag.Int64("seed", 42, "workload generation seed")
	format := flag.String("format", "table", "output format: table or csv")
	plot := flag.Bool("plot", false, "also render figures as ASCII charts")
	out := flag.String("out", "", "also persist every table as a BENCH JSON artifact at this path")
	check := flag.String("check", "", "validate a BENCH artifact written by -out and exit")
	flag.Parse()

	if *list {
		listExperiments(os.Stdout)
		return
	}
	if *check != "" {
		if err := checkArtifact(*check); err != nil {
			fmt.Fprintln(os.Stderr, "nvbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *check)
		return
	}

	opt := harness.DefaultRunOptions()
	opt.Scale = *scale
	opt.Threads = *threads
	opt.Seed = *seed

	c := &runCtx{opt: opt, format: *format, plot: *plot, w: os.Stdout}
	if err := run(c, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		if _, ok := lookup(*exp); !ok && *exp != "all" {
			listExperiments(os.Stderr)
		}
		os.Exit(1)
	}
	if *out != "" {
		if err := writeArtifact(*out, *exp, c.tables); err != nil {
			fmt.Fprintln(os.Stderr, "nvbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// runCtx carries one invocation's options plus a cache for harness runs
// shared between experiments (figure5 and figure6 render the same sweep).
type runCtx struct {
	opt    harness.RunOptions
	format string
	plot   bool
	w      io.Writer // where tables and plots are rendered

	par56  *harness.ParallelResult
	tables []*harness.Table // everything shown, for -out
}

func (c *runCtx) show(t *harness.Table) {
	c.tables = append(c.tables, t)
	if c.format == "csv" {
		fmt.Fprint(c.w, t.CSV())
		return
	}
	fmt.Fprintln(c.w, t.String())
}

// benchTables is the -out artifact: the benchfmt envelope plus every table
// the invocation rendered, machine-readable for trajectory diffing.
type benchTables struct {
	benchfmt.Meta
	Tables []tableJSON `json:"tables"`
}

type tableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func writeArtifact(path, exp string, tables []*harness.Table) error {
	art := benchTables{Meta: benchfmt.NewMeta("nvbench_" + exp)}
	for _, t := range tables {
		art.Tables = append(art.Tables, tableJSON{
			Title: t.Title, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes,
		})
	}
	return benchfmt.WriteFile(path, art)
}

// checkArtifact validates a -out artifact: intact envelope, at least one
// table, and rectangular rows. CI runs this against every checked-in and
// freshly generated BENCH file so a truncated or hand-mangled artifact
// fails fast instead of silently drifting.
func checkArtifact(path string) error {
	var art benchTables
	if err := benchfmt.ReadFile(path, &art); err != nil {
		return err
	}
	if err := art.Meta.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(art.Tables) == 0 {
		return fmt.Errorf("%s: no tables", path)
	}
	for _, t := range art.Tables {
		if t.Title == "" || len(t.Headers) == 0 || len(t.Rows) == 0 {
			return fmt.Errorf("%s: table %q is empty", path, t.Title)
		}
		for i, row := range t.Rows {
			if len(row) != len(t.Headers) {
				return fmt.Errorf("%s: table %q row %d has %d cells, want %d",
					path, t.Title, i, len(row), len(t.Headers))
			}
		}
	}
	return nil
}

func (c *runCtx) parallel56() (*harness.ParallelResult, error) {
	if c.par56 == nil {
		r, err := harness.ParallelFigures56(c.opt, nil)
		if err != nil {
			return nil, err
		}
		c.par56 = r
	}
	return c.par56, nil
}

// experiment is one reproducible artifact of the paper.
type experiment struct {
	id   string
	desc string
	run  func(c *runCtx) error
}

// experiments is the registry, in the paper's presentation order. "all"
// runs them top to bottom.
var experiments = []experiment{
	{"table1", "Table I: slowdown of eager persistence vs transient runs", func(c *runCtx) error {
		r, err := harness.EagerSlowdown(c.opt)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"figure2", "Figure 2: miss-ratio curve of water-spatial and the chosen cache size", func(c *runCtx) error {
		r, err := harness.MRCOf("water-spatial", c.opt)
		if err != nil {
			return err
		}
		if c.plot {
			fmt.Fprintln(c.w, harness.PlotCurve(
				fmt.Sprintf("Figure 2: MRC of %s (chosen %d)", r.Program, r.Chosen),
				[]string{"miss ratio"}, [][]float64{r.Miss}, 12))
			return nil
		}
		c.show(r.Table())
		return nil
	}},
	{"table2", "Table II: mdb B+-tree insert throughput under each policy", func(c *runCtx) error {
		r, err := harness.MDBTable2(c.opt)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"table3", "Table III: flush ratios of all six policies over twelve workloads", func(c *runCtx) error {
		r, err := harness.FlushRatiosTable3(c.opt)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"figure4", "Figure 4: single-thread speedups of each policy over eager", func(c *runCtx) error {
		r, err := harness.SpeedupsFigure4(c.opt)
		if err != nil {
			return err
		}
		c.show(r.Table())
		if c.plot {
			labels := make([]string, len(r.Rows))
			vals := make([]float64, len(r.Rows))
			for i, row := range r.Rows {
				labels[i], vals[i] = row.Name, row.SC
			}
			fmt.Fprintln(c.w, harness.PlotBars("Figure 4: SC speedup over ER", labels, vals, "x"))
		}
		return nil
	}},
	{"figure5", "Figure 5: SPLASH2 thread-sweep speedups (software cache)", func(c *runCtx) error {
		r, err := c.parallel56()
		if err != nil {
			return err
		}
		c.show(r.Figure5Table())
		return nil
	}},
	{"figure6", "Figure 6: SPLASH2 thread-sweep flush ratios", func(c *runCtx) error {
		r, err := c.parallel56()
		if err != nil {
			return err
		}
		c.show(r.Figure6Table())
		return nil
	}},
	{"table4", "Table IV: water-spatial under the L1 cache simulator, by thread count", func(c *runCtx) error {
		r, err := harness.WaterSpatialTable4(c.opt, nil)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"figure7", "Figure 7: MRC accuracy — actual vs full-trace vs sampled, per program", func(c *runCtx) error {
		for _, name := range harness.Figure7Programs {
			r, err := harness.MRCAccuracyFigure7(name, c.opt)
			if err != nil {
				return err
			}
			if c.plot {
				fmt.Fprintln(c.w, harness.PlotCurve(
					fmt.Sprintf("Figure 7: %s (actual/full/sampled select %d/%d/%d)",
						r.Program, r.ChosenActual, r.ChosenFull, r.ChosenSampled),
					[]string{"actual", "full-trace", "sampled"},
					[][]float64{r.Actual, r.Full, r.Sampled}, 12))
				continue
			}
			c.show(r.Table())
		}
		return nil
	}},
	{"figure8", "Figure 8: runtime overhead of online cache-size selection", func(c *runCtx) error {
		r, err := harness.OnlineOverheadFigure8(c.opt, nil)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"contention", "store-throughput scaling of the sharded heap (wall clock, 1/2/4/8 goroutines)", func(c *runCtx) error {
		copt := harness.DefaultContentionOptions()
		if c.opt.Threads > 1 {
			copt.Goroutines = nil
			for g := 1; g <= c.opt.Threads; g *= 2 {
				copt.Goroutines = append(copt.Goroutines, g)
			}
		}
		r, err := harness.StoreScaling(copt)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"sizes", "Section IV-G: cache sizes the offline selection picks per program", func(c *runCtx) error {
		r, err := harness.SelectedSizes(c.opt)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"faultinject", "crash-point exploration: sites explored and recovery invariants passed", func(c *runCtx) error {
		r, err := harness.CrashExploration(0)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"loadgen", "open-loop latency sweep: every distribution against a self-hosted nvserver", func(c *runCtx) error {
		opt := harness.DefaultLoadgenOptions()
		// -scale shrinks the per-distribution op budget (CI smoke runs pass
		// a tiny scale); the arrival rate stays fixed so percentiles remain
		// comparable across scales.
		if s := c.opt.Scale * 256; s > 0 && s != 1 {
			opt.Ops = int(float64(opt.Ops) * s)
			if opt.Ops < 500 {
				opt.Ops = 500
			}
		}
		opt.Seed = c.opt.Seed
		r, err := harness.LoadgenSweep(opt)
		if err != nil {
			return err
		}
		c.show(r.Table())
		return nil
	}},
	{"proto", "wire protocol A/B: the same open-loop mix over text vs binary framing, with allocs/op", func(c *runCtx) error {
		opt := harness.DefaultProtoOptions()
		// -scale shrinks the per-side op budget (CI smoke runs pass a tiny
		// scale); the arrival rate stays fixed so percentiles and the
		// alloc/op comparison remain meaningful across scales.
		if s := c.opt.Scale * 256; s > 0 && s != 1 {
			opt.Ops = int(float64(opt.Ops) * s)
			if opt.Ops < 1000 {
				opt.Ops = 1000
			}
		}
		opt.Seed = c.opt.Seed
		r, err := harness.ProtoAB(opt)
		if err != nil {
			return err
		}
		// The refactor's acceptance gates. Allocations gate strictly: the
		// binary hot path must be cheaper per op than text rendering and
		// parsing. Throughput gates tolerantly — at a fixed arrival rate
		// both sides complete the same schedule, so equal-ish throughput
		// plus lower allocs/op is the win condition (a hard > would flake
		// on scheduling noise).
		if r.Binary.AllocsPerOp >= r.Text.AllocsPerOp {
			return fmt.Errorf("binary protocol allocs/op %.2f not below text %.2f",
				r.Binary.AllocsPerOp, r.Text.AllocsPerOp)
		}
		if bt, tt := r.Binary.Report.Throughput(), r.Text.Report.Throughput(); bt < 0.9*tt {
			return fmt.Errorf("binary throughput %.0f ops/s below 0.9x text %.0f", bt, tt)
		}
		c.show(r.Table())
		return nil
	}},
}

func lookup(id string) (experiment, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

func listExperiments(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-8s  %s\n", e.id, e.desc)
	}
	fmt.Fprintf(w, "  %-8s  %s\n", "all", "every experiment above, in order")
}

func run(c *runCtx, exp string) error {
	if exp == "all" {
		for _, e := range experiments {
			if err := e.run(c); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
		}
		return nil
	}
	e, ok := lookup(exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return e.run(c)
}
