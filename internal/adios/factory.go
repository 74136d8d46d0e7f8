package adios

import (
	"fmt"

	"gosensei/internal/core"
)

func init() {
	core.RegisterFactory("adios", func(attrs *core.Attrs, env *core.Env) (core.AnalysisAdaptor, error) {
		switch tr := attrs.String("transport", "bp-file"); tr {
		case "bp-file":
			w := NewWriter(env.Comm, &BPFileTransport{Dir: attrs.String("dir", "adios-out")})
			w.Registry = env.Registry
			w.Memory = env.Memory
			return w, nil
		case "flexpath":
			// A FlexPath fabric connects two executables; it cannot be built
			// from a per-rank XML attribute set. Construct NewWriter with a
			// FlexPathTransport programmatically instead (see cmd/endpoint).
			return nil, fmt.Errorf("adios: flexpath transport requires programmatic setup, not XML")
		default:
			return nil, fmt.Errorf("adios: unknown transport %q", tr)
		}
	})
}
