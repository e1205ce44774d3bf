// Package countryrank is the public API of the country-level AS ranking
// library: a reproduction of "On the Importance of Being an AS: An Approach
// to Country-Level AS Rankings" (IMC 2023).
//
// The library adapts the two canonical global AS-ranking metrics — customer
// cone and AS hegemony — to country-specific national and international
// views (CCN, CCI, AHN, AHI), implements the AHC and CTI baselines, and
// evaluates ranking stability under vantage-point downsampling with NDCG.
// Because the paper's inputs (RouteViews/RIS dumps, commercial geolocation)
// are not redistributable, the library ships a complete synthetic substrate:
// a country-modeled Internet topology generator, a valley-free BGP
// propagation simulator, an MRT TABLE_DUMP_V2 codec, a geolocation service,
// the Table-1 sanitization pipeline, and relationship inference.
//
// Quick start:
//
//	p := countryrank.NewPipeline(countryrank.Options{Seed: 1})
//	au := p.Country("AU")
//	fmt.Print(au.AHN.Render(10))
//
// See examples/ for runnable scenarios and cmd/experiments for the full
// reproduction of every table and figure in the paper.
package countryrank

import (
	"countryrank/internal/core"
	"countryrank/internal/topology"
)

// Options configures a pipeline run; see core.Options for field docs.
type Options = core.Options

// Pipeline is a fully processed snapshot exposing the ranking metrics.
type Pipeline = core.Pipeline

// CountryRankings bundles CCI/CCN/AHI/AHN for one country.
type CountryRankings = core.CountryRankings

// Metric names a ranking metric (CCI, CCN, AHI, AHN, CCG, AHG, AHC, CTI).
type Metric = core.Metric

// ViewKind selects national, international or global views.
type ViewKind = core.ViewKind

// OutboundRankings bundles the outbound-view metrics (the §7 extension).
type OutboundRankings = core.OutboundRankings

// View kinds.
const (
	National      = core.National
	International = core.International
	Global        = core.Global
	// Outbound implements §7's future-work direction: paths out of a
	// country (in-country VPs toward out-of-country prefixes).
	Outbound = core.Outbound
)

// Metrics.
const (
	CCI = core.CCI
	CCN = core.CCN
	AHI = core.AHI
	AHN = core.AHN
	CCG = core.CCG
	AHG = core.AHG
	AHC = core.AHC
	CTI = core.CTI
)

// Scenarios mirror the paper's two measurement dates.
const (
	Apr2021 = topology.Apr2021
	Mar2023 = topology.Mar2023
)

// Option sentinels. The zero value of Options.Trim / Options.Threshold
// selects the paper's defaults; these request an actual zero instead.
const (
	// NoTrim disables AH/CTI trimming (the trim ablation).
	NoTrim = core.NoTrim
	// PluralityThreshold geolocates a prefix to any plurality country
	// rather than requiring a majority.
	PluralityThreshold = core.PluralityThreshold
)

// NewPipeline builds a synthetic world per the options and runs the full
// processing pipeline over it (Figure 6 of the paper).
func NewPipeline(opt Options) *Pipeline { return core.NewPipeline(opt) }
