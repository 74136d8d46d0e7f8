package catalyst

// Edition is a named subset of the infrastructure's features, mirroring
// Catalyst Editions: trimmed builds "that only enable components of ParaView
// used in the analysis pipelines" to minimize the linked footprint.
// ResidentBytes models the library's contribution to the executable /
// resident set, the quantity the paper reports for PHASTA (153 MB static vs
// 87 MB dynamic) and Nyx (68 MB -> 109 MB).
type Edition struct {
	Name          string
	Features      map[string]bool
	ResidentBytes int64
}

// Has reports whether the edition includes a feature.
func (e *Edition) Has(feature string) bool { return e.Features[feature] }

// RenderingEdition models the trimmed rendering build the paper's PHASTA
// runs used: rendering plus a small subset of filters.
func RenderingEdition() Edition {
	return Edition{
		Name: "rendering-base",
		Features: map[string]bool{
			"slice": true, "render": true, "png": true,
		},
		ResidentBytes: 87 << 20,
	}
}
