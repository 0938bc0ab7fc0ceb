package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"encdns/internal/core"
	"encdns/internal/testutil"
)

func TestReproAllArtefacts(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-rounds", "12", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	// Every artefact family must be present.
	wanted := []string{
		"table1.txt", "table2.txt", "table3.txt",
		"availability.txt", "shape-checks.txt", "ablation.txt",
		"drift.txt", "homevsec2.txt", "results.jsonl",
		"fig1.txt", "fig1.csv", "fig1.svg",
		"fig2a.txt", "fig3d.svg", "fig4b.csv",
	}
	for _, name := range wanted {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artefact %s: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artefact %s is empty", name)
		}
	}
	// The raw records parse back.
	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n := len(testutil.DecodeJSONL[core.Record](t, f)); n != 7*75*4*12 {
		t.Errorf("records = %d", n)
	}
}

func TestReproSingleArtefact(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-rounds", "8", "-only", "table2"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Seoul (ms)") {
		t.Errorf("table2 content:\n%s", b)
	}
	// Nothing else generated.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("extra artefacts: %v", entries)
	}
}

func TestReproFigureFamily(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-rounds", "6", "-only", "fig4"}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	// 4 panels × 3 formats.
	if len(entries) != 12 {
		t.Errorf("fig4 family produced %d files", len(entries))
	}
}

func TestReproUnknownArtefact(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-only", "fig99zz"}); err == nil {
		t.Error("unknown artefact accepted")
	}
}

func TestReproIndex(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-rounds", "6", "-only", "fig1"}); err != nil {
		t.Fatal(err)
	}
	// Index regenerates on demand over whatever exists.
	if err := run([]string{"-out", dir, "-rounds", "6", "-only", "index"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	html := string(b)
	for _, want := range []string{"<h1>Reproduction artefacts</h1>", "fig1.svg", "fig1.txt", "fig1.csv"} {
		if !strings.Contains(html, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

// The committed out/ directory is exactly what repro writes at its
// defaults (seed 1, 80 rounds), which makes it an oracle for the whole
// pipeline: a change to the model, the campaign, the analysis or a renderer
// that moves any byte of any paper artefact fails here. Regenerate with
// `go run ./cmd/repro` and commit the diff when the move is intended.
func TestReproMatchesCommittedOut(t *testing.T) {
	committed := filepath.Join("..", "..", "out")
	entries, err := os.ReadDir(committed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run([]string{"-out", dir}); err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range entries {
		if e.Name() == "results.jsonl" { // written by a local run, not committed
			continue
		}
		want, err := os.ReadFile(filepath.Join(committed, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("out/%s is committed but repro no longer writes it: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("out/%s: repro now writes %d bytes that differ from the %d committed", e.Name(), len(got), len(want))
		}
		compared++
	}
	if compared < 48 {
		t.Errorf("compared %d artefacts, want the 48 committed ones", compared)
	}
	fresh, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != compared+1 {
		t.Errorf("repro wrote %d files, out/ has %d plus results.jsonl", len(fresh), compared)
	}
}

// The raw record stream, pinned on a second seed: every float the model
// draws reaches results.jsonl at full precision, so this hash moves if
// any of them does.
func TestReproResultsHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("floating-point contraction may differ off amd64; the hash was taken there")
	}
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-seed", "5", "-rounds", "2", "-only", "results"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const want = "a42a87c3b696324105545d6c5199af0afb2d64e82dbe941d7accdeddcd64e8f2"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("sha256(results.jsonl) at -seed 5 -rounds 2 = %s, want %s", got, want)
	}
}
