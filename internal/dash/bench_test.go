package dash_test

import (
	"testing"

	"coalqoe/internal/kernbench"
)

// Wrapper over the shared suite body (internal/kernbench), so
// `go test -bench . ./internal/dash` measures exactly what
// cmd/coalbench records. The external test package breaks the
// dash ↔ kernbench cycle.

func BenchmarkServeMixed(b *testing.B) { kernbench.ServeMixed(b) }
