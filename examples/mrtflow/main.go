// MRT flow: end-to-end interchange-format demo. Generates a world, exports
// every collector's RIB as MRT TABLE_DUMP_V2 (the RouteViews/RIS format),
// re-imports the dumps as a fresh collection, and verifies the rankings
// computed from the round-tripped data match the in-memory ones.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"

	"countryrank/internal/core"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

func main() {
	log.SetFlags(0)
	w := topology.Build(topology.Config{Seed: 1, StubScale: 0.4, VPScale: 0.4})
	// Disable day-churn so the single-day MRT dumps carry the whole truth
	// (stability flags are not part of the MRT format).
	col := routing.BuildCollection(w, routing.BuildOptions{UnstableFrac: -1})

	// Export one MRT stream per collector.
	var streams []io.Reader
	totalBytes := 0
	for _, c := range w.VPs.Collectors() {
		var buf bytes.Buffer
		if err := routing.ExportMRT(&buf, col, c.Name, 1617235200); err != nil {
			log.Fatalf("export %s: %v", c.Name, err)
		}
		totalBytes += buf.Len()
		streams = append(streams, &buf)
	}
	fmt.Printf("exported %d collectors, %.1f MiB of TABLE_DUMP_V2\n",
		len(w.VPs.Collectors()), float64(totalBytes)/(1<<20))

	// Re-import and rebuild the pipeline from the dumps.
	imported, _, err := routing.ImportMRT(w, streams, routing.ImportOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-imported %d records (in-memory collection had %d)\n",
		len(imported.Records), len(col.Records))

	direct := core.NewPipelineFrom(w, col, core.Options{Seed: 1})
	viaMRT := core.NewPipelineFrom(w, imported, core.Options{Seed: 1})

	a := direct.Country("JP").CCI.TopASNs(5)
	b := viaMRT.Country("JP").CCI.TopASNs(5)
	fmt.Printf("JP CCI top-5 direct:  %v\n", a)
	fmt.Printf("JP CCI top-5 via MRT: %v\n", b)
	for i := range a {
		if a[i] != b[i] {
			log.Fatal("mismatch: MRT round trip changed the ranking")
		}
	}
	fmt.Println("rankings identical across the MRT round trip ✓")
}
