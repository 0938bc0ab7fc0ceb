// Command repro regenerates every table and figure of the paper from one
// simulated campaign and writes them under -out (default ./out):
//
//	table1.txt                    Table 1 (browser matrix)
//	availability.txt              §4 availability counts and error classes
//	fig1.txt .. fig4d.txt         Figures 1–4 (boxplot charts), plus .csv
//	table2.txt table3.txt         Tables 2–3 (remote-vantage medians)
//	shape-checks.txt              the §4 claims, evaluated pass/fail
//	results.jsonl                 the raw per-query records
//
// Use -only to regenerate a single artefact and -rounds/-seed to rescale
// the campaign.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"encdns/internal/experiment"
	"encdns/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		outDir = fs.String("out", "out", "output directory")
		seed   = fs.Uint64("seed", 1, "campaign seed")
		rounds = fs.Int("rounds", experiment.DefaultRounds, "campaign rounds")
		only   = fs.String("only", "", "regenerate one artefact: table1|table2|table3|availability|shape|ablation|drift|homevsec2|figN[x]|results")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	r := experiment.New(*seed, *rounds)

	want := func(name string) bool { return *only == "" || *only == name }
	wrote := 0

	if want("table1") {
		if err := writeArtefact(*outDir, "table1.txt", func(f io.Writer) error {
			return experiment.Table1().Render(f)
		}); err != nil {
			return err
		}
		wrote++
	}
	if want("availability") {
		av, err := r.Availability()
		if err != nil {
			return err
		}
		if err := writeArtefact(*outDir, "availability.txt", av.Render); err != nil {
			return err
		}
		wrote++
	}
	for _, id := range experiment.AllFigures() {
		// -only fig2 regenerates the whole fig2 panel set; -only fig2c one
		// panel.
		if *only != "" && !strings.HasPrefix(string(id), *only) {
			continue
		}
		chart, err := r.Figure(id)
		if err != nil {
			return err
		}
		if err := writeArtefact(*outDir, string(id)+".txt", chart.Render); err != nil {
			return err
		}
		if err := writeArtefact(*outDir, string(id)+".csv", func(f io.Writer) error {
			return report.ChartCSV(chart, f)
		}); err != nil {
			return err
		}
		if err := writeArtefact(*outDir, string(id)+".svg", func(f io.Writer) error {
			return report.ChartSVG(chart, f)
		}); err != nil {
			return err
		}
		wrote++
	}
	if want("table2") {
		t2, err := r.Table2()
		if err != nil {
			return err
		}
		if err := writeArtefact(*outDir, "table2.txt", t2.Render); err != nil {
			return err
		}
		wrote++
	}
	if want("table3") {
		t3, err := r.Table3()
		if err != nil {
			return err
		}
		if err := writeArtefact(*outDir, "table3.txt", t3.Render); err != nil {
			return err
		}
		wrote++
	}
	if want("shape") {
		checks, err := r.ShapeChecks()
		if err != nil {
			return err
		}
		failed := 0
		for _, c := range checks {
			if !c.Pass {
				failed++
			}
		}
		if err := writeArtefact(*outDir, "shape-checks.txt", func(f io.Writer) error {
			return experiment.RenderChecks(f, checks)
		}); err != nil {
			return err
		}
		fmt.Printf("shape checks: %d/%d pass\n", len(checks)-failed, len(checks))
		wrote++
	}
	if want("ablation") {
		// Design-choice ablation: protocol × connection mode for a
		// representative single-site resolver from Ohio.
		rows, err := experiment.ProtocolAblation(*seed, "ec2-ohio", "doh.la.ahadns.net", *rounds*2)
		if err != nil {
			return err
		}
		if err := writeArtefact(*outDir, "ablation.txt", func(f io.Writer) error {
			return experiment.RenderAblation(f, "ec2-ohio", "doh.la.ahadns.net", rows)
		}); err != nil {
			return err
		}
		wrote++
	}
	if want("homevsec2") {
		rep, err := r.HomeVsEC2()
		if err != nil {
			return err
		}
		if err := writeArtefact(*outDir, "homevsec2.txt", rep.Render); err != nil {
			return err
		}
		wrote++
	}
	if want("drift") {
		// §3.2 stability check: the 2023 main span vs the Feb/Mar/Apr
		// 2024 follow-up spans from the Ohio vantage.
		rep, err := experiment.DriftCheck(*seed, "ec2-ohio", *rounds, 0.5)
		if err != nil {
			return err
		}
		if err := writeArtefact(*outDir, "drift.txt", rep.Render); err != nil {
			return err
		}
		wrote++
	}
	if want("results") {
		rs, err := r.Results()
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, "results.jsonl")
		if err := rs.WriteJSONFile(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d records)\n", path, rs.Len())
		wrote++
	}

	if *only == "" || *only == "index" {
		if err := writeIndex(*outDir); err != nil {
			return err
		}
		wrote++
	}
	if wrote == 0 {
		return fmt.Errorf("unknown artefact %q", *only)
	}
	fmt.Printf("regenerated %d artefact group(s) in %s/\n", wrote, *outDir)
	return nil
}

// writeIndex emits an index.html linking every artefact present in the
// output directory, with the SVG figures inlined for browsing.
func writeIndex(outDir string) error {
	entries, err := os.ReadDir(outDir)
	if err != nil {
		return err
	}
	var svgs, texts, csvs []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".svg"):
			svgs = append(svgs, name)
		case strings.HasSuffix(name, ".txt"):
			texts = append(texts, name)
		case strings.HasSuffix(name, ".csv"):
			csvs = append(csvs, name)
		}
	}
	sort.Strings(svgs)
	sort.Strings(texts)
	sort.Strings(csvs)

	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">` +
		`<title>encdns reproduction artefacts</title>` +
		`<style>body{font-family:Helvetica,Arial,sans-serif;max-width:1040px;margin:2em auto;padding:0 1em}` +
		`img{max-width:100%;border:1px solid #ddd;margin:8px 0}` +
		`li{margin:2px 0}</style></head><body>` + "\n")
	sb.WriteString("<h1>Reproduction artefacts</h1>\n")
	sb.WriteString("<p>Generated by <code>cmd/repro</code>; the experiment index lives in DESIGN.md, paper-vs-measured in EXPERIMENTS.md.</p>\n")
	sb.WriteString("<h2>Tables, checks, and reports</h2>\n<ul>\n")
	for _, name := range texts {
		fmt.Fprintf(&sb, `<li><a href="%s">%s</a></li>`+"\n", name, name)
	}
	sb.WriteString("</ul>\n<h2>Raw data</h2>\n<ul>\n")
	for _, name := range csvs {
		fmt.Fprintf(&sb, `<li><a href="%s">%s</a></li>`+"\n", name, name)
	}
	if _, err := os.Stat(filepath.Join(outDir, "results.jsonl")); err == nil {
		sb.WriteString(`<li><a href="results.jsonl">results.jsonl</a> (per-query records)</li>` + "\n")
	}
	sb.WriteString("</ul>\n<h2>Figures</h2>\n")
	for _, name := range svgs {
		fmt.Fprintf(&sb, `<h3>%s</h3><img src="%s" alt="%s">`+"\n", name, name, name)
	}
	sb.WriteString("</body></html>\n")

	path := filepath.Join(outDir, "index.html")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeArtefact renders into outDir/name via the callback.
func writeArtefact(outDir, name string, render func(io.Writer) error) error {
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := render(bw); err != nil {
		f.Close()
		return fmt.Errorf("rendering %s: %w", name, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
