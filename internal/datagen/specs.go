package datagen

import "erfilter/internal/entity"

// paperSpec holds the full-size shape of one dataset analog, mirroring
// Table VI, together with its noise profile.
var paperSpecs = []Spec{
	{
		// D1: restaurants (OAEI 2010). Small and clean; the best attribute
		// covers ~2/3 of all profiles but all of the duplicate ones.
		Name: "D1", Domain: "restaurant", N1: 339, N2: 2256, Duplicates: 89,
		TypoRate: 0.08, DropTokenRate: 0.02, MissingRate: 0.02, ShuffleRate: 0.2,
		BestMissingNonDupRate: 0.35, Seed: 101,
	},
	{
		// D2: Abt-Buy products. Distinctive titles with model codes.
		Name: "D2", Domain: "product", N1: 1076, N2: 1076, Duplicates: 1076,
		TypoRate: 0.06, DropTokenRate: 0.08, MissingRate: 0.06, ShuffleRate: 0.3,
		GenericBias: 0.25, Seed: 102,
	},
	{
		// D3: Amazon-Google products. Duplicates share mostly generic
		// content, depressing the precision of every filter.
		Name: "D3", Domain: "product", N1: 1354, N2: 3039, Duplicates: 1104,
		TypoRate: 0.10, DropTokenRate: 0.15, MissingRate: 0.10, ShuffleRate: 0.4,
		GenericBias: 0.55, Seed: 103,
	},
	{
		// D4: DBLP-ACM bibliography. Very clean, highly distinctive titles:
		// the near-perfect-precision regime.
		Name: "D4", Domain: "bibliographic", N1: 2616, N2: 2294, Duplicates: 2224,
		TypoRate: 0.02, DropTokenRate: 0.02, MissingRate: 0.01, ShuffleRate: 0.1,
		GenericBias: 0.05, Seed: 104,
	},
	{
		// D5: IMDb-TMDb movies. Misplaced names break schema-based coverage.
		Name: "D5", Domain: "movie", N1: 5118, N2: 6056, Duplicates: 1968,
		TypoRate: 0.06, DropTokenRate: 0.06, MissingRate: 0.08, ShuffleRate: 0.2,
		MisplaceRate: 0.45, GenericBias: 0.20, Seed: 105,
	},
	{
		// D6: IMDb-TVDB.
		Name: "D6", Domain: "movie", N1: 5118, N2: 7810, Duplicates: 1072,
		TypoRate: 0.07, DropTokenRate: 0.08, MissingRate: 0.10, ShuffleRate: 0.2,
		MisplaceRate: 0.50, GenericBias: 0.25, Seed: 106,
	},
	{
		// D7: TMDb-TVDB.
		Name: "D7", Domain: "movie", N1: 6056, N2: 7810, Duplicates: 1095,
		TypoRate: 0.06, DropTokenRate: 0.07, MissingRate: 0.09, ShuffleRate: 0.2,
		MisplaceRate: 0.40, GenericBias: 0.20, Seed: 107,
	},
	{
		// D8: Walmart-Amazon products. Large, noisy, generic-heavy.
		Name: "D8", Domain: "product", N1: 2554, N2: 22074, Duplicates: 853,
		TypoRate: 0.08, DropTokenRate: 0.12, MissingRate: 0.08, ShuffleRate: 0.3,
		GenericBias: 0.45, Seed: 108,
	},
	{
		// D9: DBLP-Google Scholar bibliography.
		Name: "D9", Domain: "bibliographic", N1: 2516, N2: 61353, Duplicates: 2308,
		TypoRate: 0.05, DropTokenRate: 0.08, MissingRate: 0.05, ShuffleRate: 0.2,
		GenericBias: 0.15, Seed: 109,
	},
	{
		// D10: IMDb-DBpedia movies. The largest task; one constituent
		// dataset has inadequate best-attribute coverage.
		Name: "D10", Domain: "movie", N1: 27615, N2: 23182, Duplicates: 22863,
		TypoRate: 0.06, DropTokenRate: 0.08, MissingRate: 0.06, ShuffleRate: 0.2,
		MisplaceRate: 0.30, GenericBias: 0.20, Seed: 110,
	},
}

// SchemaBasedDatasets lists the dataset names whose best attribute has
// adequate groundtruth coverage for the schema-based settings; D5–D7 and
// D10 are excluded, as in the paper (Section VI, "Schema settings").
var SchemaBasedDatasets = map[string]bool{
	"D1": true, "D2": true, "D3": true, "D4": true, "D8": true, "D9": true,
}

// Specs returns the D1..D10 dataset specs with every size multiplied by
// scale (clamped below at 30 entities / 10 duplicates). scale=1 reproduces
// the paper's sizes.
func Specs(scale float64) []Spec {
	if scale <= 0 {
		scale = 1
	}
	out := make([]Spec, len(paperSpecs))
	for i, s := range paperSpecs {
		s.N1 = scaled(s.N1, scale, 30)
		s.N2 = scaled(s.N2, scale, 30)
		s.Duplicates = scaled(s.Duplicates, scale, 10)
		if s.Duplicates > s.N1 {
			s.Duplicates = s.N1
		}
		if s.Duplicates > s.N2 {
			s.Duplicates = s.N2
		}
		out[i] = s
	}
	return out
}

func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		if n < min {
			return n
		}
		return min
	}
	return v
}

// ByName generates a single dataset analog by name ("D1".."D10") at the
// given scale; it returns nil for unknown names.
func ByName(name string, scale float64) *entity.Task {
	for _, s := range Specs(scale) {
		if s.Name == name {
			return Generate(s)
		}
	}
	return nil
}

// QuickSpec returns a tiny product task for tests and examples: n1 and n2
// entities with the given number of duplicates and moderate noise.
func QuickSpec(n1, n2, dups int, seed uint64) Spec {
	return Spec{
		Name: "quick", Domain: "product", N1: n1, N2: n2, Duplicates: dups,
		TypoRate: 0.06, DropTokenRate: 0.08, MissingRate: 0.05, ShuffleRate: 0.3,
		GenericBias: 0.25, Seed: seed,
	}
}
