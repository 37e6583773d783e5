package arena_test

import (
	"testing"

	"coalqoe/internal/kernbench"
)

// Wrapper over the shared suite body (internal/kernbench), so
// `go test -bench . ./internal/arena` measures exactly what
// cmd/coalbench records.

func BenchmarkArenaQuick(b *testing.B) { kernbench.ArenaQuick(b) }
