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
// (oldest as the "before" side): like rankd's warm start, a generation that
// does not load is skipped and named on stderr. -epochs A,B selects two
// specific epochs instead, and both must load. -gate exits with status 2
// when the max churn score exceeds the threshold, so scenario runs can gate
// on drift exactly like rankd's -drift-gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"countryrank/internal/snapshot"
)

func main() {
	n := flag.Int("n", 10, "top movers to show per metric")
	gate := flag.Float64("gate", 0, "exit 2 when the max churn score exceeds this (0 = no gate)")
	asJSON := flag.Bool("json", false, "emit the structured Drift as JSON instead of the report")
	dir := flag.String("snapshot-dir", "", "diff the two newest valid generations in this directory")
	epochs := flag.String("epochs", "", "with -snapshot-dir: diff these two epochs, \"A,B\" (A = before)")
	flag.Parse()

	oldSnap, newSnap, err := resolve(*dir, *epochs, flag.Args(), os.Stderr)
	if err != nil {
		fatal(err)
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

// resolve loads the (old, new) generations the flags name: two positional
// paths, or two -epochs of a -snapshot-dir, each of which must load; or by
// default the -snapshot-dir's two newest generations that load, skipping
// and naming on warn each newer one LoadFile rejects.
func resolve(dir, epochs string, args []string, warn io.Writer) (*snapshot.Snapshot, *snapshot.Snapshot, error) {
	if dir == "" {
		if epochs != "" {
			return nil, nil, fmt.Errorf("-epochs %s selects generations in a -snapshot-dir; none given", epochs)
		}
		if len(args) != 2 {
			return nil, nil, fmt.Errorf("want two .csnap paths (or -snapshot-dir), got %d args", len(args))
		}
		return loadPair(args[0], args[1])
	}
	if len(args) != 0 {
		return nil, nil, fmt.Errorf("-snapshot-dir and positional paths are mutually exclusive")
	}
	gens, err := snapshot.Generations(dir) // newest first; a missing directory is an error
	if err != nil {
		return nil, nil, err
	}
	if epochs != "" {
		parts := strings.Split(epochs, ",")
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("-epochs wants \"A,B\", got %q", epochs)
		}
		var paths [2]string
		for i, part := range parts {
			e, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("-epochs: %w", err)
			}
			paths[i] = snapshot.GenerationPath(dir, e)
		}
		return loadPair(paths[0], paths[1])
	}
	var valid []*snapshot.Snapshot
	for _, path := range gens {
		s, err := snapshot.LoadFile(path)
		if err != nil {
			fmt.Fprintln(warn, "rankdiff: skipping invalid generation:", err)
			continue
		}
		if valid = append(valid, s); len(valid) == 2 {
			return valid[1], valid[0], nil
		}
	}
	return nil, nil, fmt.Errorf("%s holds %d valid generation(s) of %d; need two to diff", dir, len(valid), len(gens))
}

// loadPair loads two named generation files, failing on either (LoadFile's
// error names the file).
func loadPair(oldPath, newPath string) (*snapshot.Snapshot, *snapshot.Snapshot, error) {
	oldSnap, err := snapshot.LoadFile(oldPath)
	if err != nil {
		return nil, nil, err
	}
	newSnap, err := snapshot.LoadFile(newPath)
	if err != nil {
		return nil, nil, err
	}
	return oldSnap, newSnap, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rankdiff:", err)
	os.Exit(1)
}
