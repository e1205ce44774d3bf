// Package countries provides the ISO 3166-1 alpha-2 country codes and
// continent assignments used by the country-level ranking metrics and the
// continental-dominance analysis (Table 12).
package countries

import "sort"

// Code is an ISO 3166-1 alpha-2 country code, upper case ("US", "JP").
// The paper also uses "EU" for pan-European registrations, which we keep.
type Code string

// Continent groups countries per the paper's Table 12 columns.
type Continent string

// Continents in Table 12 order.
const (
	NorthAmerica Continent = "North America"
	SouthAmerica Continent = "South America"
	Europe       Continent = "Europe"
	Africa       Continent = "Africa"
	Asia         Continent = "Asia"
	Oceania      Continent = "Oceania"
)

// AllContinents lists the continents in the paper's presentation order.
func AllContinents() []Continent {
	return []Continent{NorthAmerica, SouthAmerica, Europe, Africa, Asia, Oceania}
}

// info describes one country in our world model.
type info struct {
	name      string
	continent Continent
}

// registry covers every country the synthetic world models, including all
// countries named anywhere in the paper's tables and case studies.
var registry = map[Code]info{
	"US": {"United States", NorthAmerica},
	"CA": {"Canada", NorthAmerica},
	"MX": {"Mexico", NorthAmerica},
	"MQ": {"Martinique", NorthAmerica},
	"BR": {"Brazil", SouthAmerica},
	"AR": {"Argentina", SouthAmerica},
	"CL": {"Chile", SouthAmerica},
	"CO": {"Colombia", SouthAmerica},
	"PE": {"Peru", SouthAmerica},
	"NL": {"Netherlands", Europe},
	"GB": {"United Kingdom", Europe},
	"DE": {"Germany", Europe},
	"FR": {"France", Europe},
	"IT": {"Italy", Europe},
	"ES": {"Spain", Europe},
	"SE": {"Sweden", Europe},
	"CH": {"Switzerland", Europe},
	"AT": {"Austria", Europe},
	"RU": {"Russia", Europe},
	"UA": {"Ukraine", Europe},
	"LT": {"Lithuania", Europe},
	"HR": {"Croatia", Europe},
	"GG": {"Guernsey", Europe},
	"IM": {"Isle of Man", Europe},
	"EU": {"European Union", Europe},
	"ZA": {"South Africa", Africa},
	"KE": {"Kenya", Africa},
	"UG": {"Uganda", Africa},
	"MA": {"Morocco", Africa},
	"CI": {"Ivory Coast", Africa},
	"TN": {"Tunisia", Africa},
	"MU": {"Mauritius", Africa},
	"NA": {"Namibia", Africa},
	"NG": {"Nigeria", Africa},
	"EG": {"Egypt", Africa},
	"JP": {"Japan", Asia},
	"CN": {"China", Asia},
	"TW": {"Taiwan", Asia},
	"SG": {"Singapore", Asia},
	"IN": {"India", Asia},
	"KR": {"South Korea", Asia},
	"HK": {"Hong Kong", Asia},
	"KZ": {"Kazakhstan", Asia},
	"KG": {"Kyrgyzstan", Asia},
	"TJ": {"Tajikistan", Asia},
	"TM": {"Turkmenistan", Asia},
	"UZ": {"Uzbekistan", Asia},
	"AF": {"Afghanistan", Asia},
	"AU": {"Australia", Oceania},
	"NZ": {"New Zealand", Oceania},
	"FJ": {"Fiji", Oceania},
	"PG": {"Papua New Guinea", Oceania},
}

// Known reports whether c is a country the world model understands.
func Known(c Code) bool {
	_, ok := registry[c]
	return ok
}

// Name returns the English name of c, or the code itself when unknown.
func Name(c Code) string {
	if in, ok := registry[c]; ok {
		return in.name
	}
	return string(c)
}

// ContinentOf returns the continent c belongs to. Unknown codes return the
// empty Continent and false.
func ContinentOf(c Code) (Continent, bool) {
	in, ok := registry[c]
	if !ok {
		return "", false
	}
	return in.continent, true
}

// All returns every known country code in sorted order.
func All() []Code {
	out := make([]Code, 0, len(registry))
	for c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FormerSovietBloc lists the ex-USSR countries examined in Figure 7.
func FormerSovietBloc() []Code {
	return []Code{"KZ", "KG", "TJ", "TM", "UZ", "UA", "LT"}
}
