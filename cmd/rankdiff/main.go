// Command rankdiff renders the drift between two persisted snapshot
// generations: the paper-style delta report (per-metric churn scores,
// movement histogram, top movers in the case-study table format) that the
// live supervisor logs at every rollover — computed by the same diff
// engine over the same rank vectors, so an offline report and the live
// drift summary always agree.
//
// Usage:
//
//	rankdiff [-n N] [-gate SCORE] [-json] OLD.csnap NEW.csnap
//	rankdiff [-n N] [-gate SCORE] [-json] -snapshot-dir DIR [-epochs A,B]
//
// With -snapshot-dir, the two newest valid generations are compared
// (oldest as the "before" side); -epochs A,B selects two specific epochs
// instead. -gate exits with status 2 when the max churn score exceeds the
// threshold, so scenario runs can gate on drift exactly like rankd's
// -drift-gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"countryrank/internal/snapshot"
)

func main() {
	n := flag.Int("n", 10, "top movers to show per metric")
	gate := flag.Float64("gate", 0, "exit 2 when the max churn score exceeds this (0 = no gate)")
	asJSON := flag.Bool("json", false, "emit the structured Drift as JSON instead of the report")
	dir := flag.String("snapshot-dir", "", "diff the two newest generations in this directory")
	epochs := flag.String("epochs", "", "with -snapshot-dir: diff these two epochs, \"A,B\" (A = before)")
	flag.Parse()

	oldPath, newPath, err := resolvePaths(*dir, *epochs, flag.Args())
	if err != nil {
		fatal(err)
	}
	oldSnap, err := snapshot.LoadFile(oldPath)
	if err != nil {
		fatal(fmt.Errorf("load %s: %w", oldPath, err))
	}
	newSnap, err := snapshot.LoadFile(newPath)
	if err != nil {
		fatal(fmt.Errorf("load %s: %w", newPath, err))
	}
	drift := snapshot.Diff(oldSnap, newSnap)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(drift); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(drift.Render(*n))
	}
	if *gate > 0 && drift.MaxChurn > *gate {
		fmt.Fprintf(os.Stderr, "rankdiff: churn %g exceeds gate %g\n", drift.MaxChurn, *gate)
		os.Exit(2)
	}
}

// resolvePaths picks the (old, new) generation files from the flags: two
// positional paths, or a -snapshot-dir (newest two generations, oldest
// first) optionally pinned to two epochs.
func resolvePaths(dir, epochs string, args []string) (string, string, error) {
	if dir == "" {
		if epochs != "" {
			return "", "", fmt.Errorf("-epochs %s selects generations in a -snapshot-dir; none given", epochs)
		}
		if len(args) != 2 {
			return "", "", fmt.Errorf("want two .csnap paths (or -snapshot-dir), got %d args", len(args))
		}
		return args[0], args[1], nil
	}
	if len(args) != 0 {
		return "", "", fmt.Errorf("-snapshot-dir and positional paths are mutually exclusive")
	}
	gens, err := snapshot.Generations(dir) // newest first; a missing directory is an error
	if err != nil {
		return "", "", err
	}
	if epochs != "" {
		parts := strings.Split(epochs, ",")
		if len(parts) != 2 {
			return "", "", fmt.Errorf("-epochs wants \"A,B\", got %q", epochs)
		}
		var paths [2]string
		for i, part := range parts {
			e, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return "", "", fmt.Errorf("-epochs: %w", err)
			}
			paths[i] = snapshot.GenerationPath(dir, e)
		}
		return paths[0], paths[1], nil
	}
	if len(gens) < 2 {
		return "", "", fmt.Errorf("%s holds %d generation(s); need two to diff", dir, len(gens))
	}
	return gens[1], gens[0], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rankdiff:", err)
	os.Exit(1)
}
