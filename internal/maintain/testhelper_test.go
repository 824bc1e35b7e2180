package maintain

import (
	"testing"

	"mindetail/internal/core"
)

// mustEngine is NewEngine for tests whose plans are valid by construction.
func mustEngine(t testing.TB, p *core.Plan) *Engine {
	t.Helper()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
